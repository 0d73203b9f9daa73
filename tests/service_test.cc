/**
 * @file
 * Robustness tests for the DSE service core (src/service/) and the
 * crash-safe persistent QoR store (src/dse/qor_store.h).
 *
 * The pinned contracts (the PR's acceptance criteria):
 *  - Totality: every submitted request — valid, malformed, faulting,
 *    shed, degraded, or caught by shutdown — receives exactly one
 *    terminal ServiceResponse; the service never aborts on
 *    tenant-triggerable conditions.
 *  - Determinism: under HIDA_FAULT_INJECT-style configs, surviving
 *    points are bit-identical at any sweepThreads count, and retry
 *    re-rolls are keyed on (point index, attempt) — never timing.
 *  - Durability: a second service instance opened on the same
 *    HIDA_QOR_STORE path warm-starts with a hit rate above 50%
 *    (here: 100%); corrupt or foreign store bytes degrade to misses
 *    (kStoreCorrupt), never to wrong answers or aborts.
 *  - Concurrency and fairness: per-request payloads are bit-identical
 *    at any HIDA_SERVICE_CONCURRENCY, deficit-weighted fair queuing
 *    keeps a chatty tenant from starving a light one, and a
 *    backing-off request holds only its own executor lane.
 *  - Backoff: one rule for point- and request-level retries — waits on
 *    the owning lane, never past the request's deadline or a shutdown.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/dse/grid.h"
#include "src/dse/qor_store.h"
#include "src/service/service.h"
#include "src/support/fault_inject.h"
#include "src/support/utils.h"

namespace hida {
namespace {

/** Fresh temp path (removed before use so tests cannot see stale
 * state from a previous run). */
std::string
tempPath(const std::string& name)
{
    std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    return path;
}

/** The 8-point LeNet factor sub-grid every service test sweeps. */
DesignPointGrid
smallGrid()
{
    DesignPointGrid grid;
    grid.addDirectiveAxis("kpf1", {1, 3}, 1, "kpf_loop");
    grid.addDirectiveAxis("kpf2", {1, 4}, 2, "kpf_loop");
    grid.addDirectiveAxis("cpf2", {1, 6}, 2, "cpf_loop");
    return grid;
}

ServiceRequest
smallRequest()
{
    ServiceRequest request;
    request.model = "lenet";
    request.batch = 1;
    request.dataflow = true;
    request.grid = smallGrid();
    request.strategy.kind = StrategyKind::kExhaustive;
    return request;
}

/** The full 2400-point Table 1 LeNet grid: seconds of sweep on any
 * machine, so it reliably occupies an executor lane while a test
 * arranges the queue behind it. */
DesignPointGrid
bigGrid()
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

FaultConfig
faultsAt(FaultSite site, uint64_t seed, double rate)
{
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(site);
    config.seed = seed;
    config.rate = rate;
    return config;
}

/** Every test leaves fault injection off for the next one. */
class ServiceTest : public ::testing::Test {
  protected:
    void TearDown() override { setFaultConfig(FaultConfig()); }
};

using QorStoreTest = ServiceTest;

// ---------------------------------------------------------------------------
// QorStore: durability mechanics.
// ---------------------------------------------------------------------------

TEST_F(QorStoreTest, RoundTripsRecordsAcrossProcesses)
{
    const std::string path = tempPath("hida_store_roundtrip.qst");
    const uint64_t tag = 0x1234;
    {
        QorStore store;
        EXPECT_FALSE(store.open(path, tag, sizeof(uint64_t)));
        for (uint64_t key = 1; key <= 5; ++key) {
            const uint64_t payload = key * 100;
            store.insert(key, &payload);
        }
        store.flush();
    }
    // "Another process": a fresh store on the same path adopts all five.
    QorStore store;
    EXPECT_FALSE(store.open(path, tag, sizeof(uint64_t)));
    EXPECT_EQ(store.stats().restored, 5u);
    for (uint64_t key = 1; key <= 5; ++key) {
        uint64_t payload = 0;
        EXPECT_TRUE(store.lookup(key, &payload));
        EXPECT_EQ(payload, key * 100);
    }
    EXPECT_EQ(store.stats().hits, 5u);
    // An absent key is a miss, never a stale or neighboring record.
    uint64_t payload = 0;
    EXPECT_FALSE(store.lookup(77, &payload));
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, ForeignContentTagDegradesToEmptyStore)
{
    const std::string path = tempPath("hida_store_foreign.qst");
    {
        QorStore store;
        EXPECT_FALSE(store.open(path, /*content_tag=*/1, sizeof(uint64_t)));
        const uint64_t payload = 7;
        store.insert(9, &payload);
        store.flush();
    }
    // A reader with different payload semantics must never trust the
    // file: reported recoverably, served as misses.
    QorStore store;
    std::optional<Diagnostic> diag =
        store.open(path, /*content_tag=*/2, sizeof(uint64_t));
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kStoreCorrupt);
    EXPECT_TRUE(store.stats().headerMismatch);
    EXPECT_EQ(store.size(), 0u);
    uint64_t payload = 0;
    EXPECT_FALSE(store.lookup(9, &payload));
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, CorruptRecordBytesAreDroppedNotTrusted)
{
    const std::string path = tempPath("hida_store_corrupt.qst");
    {
        QorStore store;
        EXPECT_FALSE(store.open(path, 1, sizeof(uint64_t)));
        for (uint64_t key = 1; key <= 3; ++key)
            store.insert(key, &key);
        store.flush();
    }
    {
        // Flip the last byte: the final record's checksum no longer
        // matches, so it (and only it) must be dropped.
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(-1, std::ios::end);
        char byte = 0;
        f.get(byte);
        f.seekp(-1, std::ios::end);
        f.put(static_cast<char>(byte ^ 0x5a));
    }
    QorStore store;
    std::optional<Diagnostic> diag = store.open(path, 1, sizeof(uint64_t));
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kStoreCorrupt);
    EXPECT_EQ(store.stats().restored, 2u);
    EXPECT_GE(store.stats().droppedCorrupt, 1u);
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, StaleTmpFromCrashedFlushIsRemovedOnOpen)
{
    const std::string path = tempPath("hida_store_staletmp.qst");
    const std::string tmp = path + ".tmp";
    {
        QorStore store;
        EXPECT_FALSE(store.open(path, 1, sizeof(uint64_t)));
        const uint64_t payload = 17;
        store.insert(0, &payload);
        store.flush();
    }
    // A crash between the snapshot write and the rename orphans a torn
    // "<path>.tmp" next to the trusted complete file.
    {
        std::ofstream out(tmp, std::ios::binary);
        out << "torn partial snapshot";
    }
    QorStore store;
    EXPECT_FALSE(store.open(path, 1, sizeof(uint64_t)));
    // The main file is the trusted one — fully adopted...
    EXPECT_EQ(store.stats().restored, 1u);
    uint64_t payload = 0;
    EXPECT_TRUE(store.lookup(0, &payload));
    EXPECT_EQ(payload, 17u);
    // ...and the orphan is gone instead of accumulating forever.
    std::ifstream probe(tmp, std::ios::binary);
    EXPECT_FALSE(probe.good()) << "stale .tmp survived open()";
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, PayloadSizeMismatchIsForeign)
{
    const std::string path = tempPath("hida_store_payload_size.qst");
    {
        QorStore store;
        EXPECT_FALSE(store.open(path, 111, sizeof(uint64_t)));
        const uint64_t payload = 5;
        store.insert(0, &payload);
        store.flush();
    }
    // Same tag, different record width: rejected, never misread.
    QorStore store;
    std::optional<Diagnostic> diag = store.open(path, 111, 16);
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kStoreCorrupt);
    EXPECT_TRUE(store.stats().headerMismatch);
    EXPECT_EQ(store.size(), 0u);
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, NonStoreFileIsForeign)
{
    // Any file that is not a store — garbage, or a sweep journal written
    // before sweep checkpoints became store files — fails the header
    // check and is ignored.
    const std::string path = tempPath("hida_store_garbage.qst");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "definitely not a store";
    }
    QorStore store;
    std::optional<Diagnostic> diag = store.open(path, 111, sizeof(uint64_t));
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kStoreCorrupt);
    EXPECT_TRUE(store.stats().headerMismatch);
    EXPECT_EQ(store.size(), 0u);
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, CorruptedMiddleRecordDropsTheTail)
{
    const std::string path = tempPath("hida_store_bitrot.qst");
    {
        QorStore store;
        EXPECT_FALSE(store.open(path, 9, sizeof(uint64_t)));
        for (uint64_t key = 0; key < 6; ++key) {
            const uint64_t payload = key * 7;
            store.insert(key, &payload);
        }
        store.flush();
    }
    // Flip one payload byte of record 3 (records are written in key
    // order: 24-byte header + 24 bytes per record, payload at +8).
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const size_t target = 24 + 3 * 24 + 8;
    ASSERT_GT(bytes.size(), target);
    bytes[target] = static_cast<char>(bytes[target] ^ 0x5a);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    QorStore store;
    std::optional<Diagnostic> diag = store.open(path, 9, sizeof(uint64_t));
    ASSERT_TRUE(diag.has_value());
    EXPECT_EQ(diag->code, ErrorCode::kStoreCorrupt);
    // Truncate-to-last-good: records 0-2 survive, 3+ are dropped.
    EXPECT_EQ(store.stats().restored, 3u);
    EXPECT_EQ(store.stats().droppedCorrupt, 1u);
    uint64_t payload = 0;
    EXPECT_TRUE(store.lookup(2, &payload));
    EXPECT_EQ(payload, 14u);
    EXPECT_FALSE(store.lookup(3, &payload));
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, MaybeFlushSnapshotsEveryNRecords)
{
    const std::string path = tempPath("hida_store_batch.qst");
    QorStore writer;
    EXPECT_FALSE(writer.open(path, 1, sizeof(uint64_t),
                             /*batch_records=*/4));
    for (uint64_t key = 0; key < 10; ++key) {
        writer.insert(key, &key);
        writer.maybeFlush();
    }
    // No explicit flush: 8 records (two full batches) must already be
    // durable; the last partial batch is only in memory.
    QorStore reader;
    EXPECT_FALSE(reader.open(path, 1, sizeof(uint64_t)));
    EXPECT_EQ(reader.stats().restored, 8u);
    writer.flush();
    EXPECT_FALSE(reader.open(path, 1, sizeof(uint64_t)));
    EXPECT_EQ(reader.stats().restored, 10u);
    std::remove(path.c_str());
}

TEST_F(QorStoreTest, EmptyPathIsAPureInMemoryMemo)
{
    QorStore store;
    EXPECT_FALSE(store.open("", 1, sizeof(uint64_t)));
    const uint64_t payload = 11;
    store.insert(3, &payload);
    store.flush();  // must be a no-op, not a crash
    uint64_t out = 0;
    EXPECT_TRUE(store.lookup(3, &out));
    EXPECT_EQ(out, 11u);
}

TEST_F(QorStoreTest, StoreFaultSiteForcesDeterministicMisses)
{
    QorStore store;
    EXPECT_FALSE(store.open("", 1, sizeof(uint64_t)));
    const uint64_t payload = 5;
    store.insert(1, &payload);

    setFaultConfig(faultsAt(FaultSite::kStore, 42, 1.0));
    {
        // Sites only fire under an active FaultScope — the sweep's
        // per-point key — so the forced miss is deterministic.
        FaultScope scope(0);
        uint64_t out = 0;
        EXPECT_FALSE(store.lookup(1, &out));
    }
    EXPECT_EQ(store.stats().injectedMisses, 1u);
    setFaultConfig(FaultConfig());
    uint64_t out = 0;
    EXPECT_TRUE(store.lookup(1, &out));
    EXPECT_EQ(out, 5u);
}

// ---------------------------------------------------------------------------
// DseService: request lifecycle.
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, MalformedRequestsAreRejectedNotFataled)
{
    ServiceOptions options;
    DseService service(options);

    ServiceRequest bad_model = smallRequest();
    bad_model.model = "no-such-model";
    ServiceRequest no_axes = smallRequest();
    no_axes.grid = DesignPointGrid();
    ServiceRequest bad_batch = smallRequest();
    bad_batch.batch = 0;
    ServiceRequest bad_deadline = smallRequest();
    bad_deadline.deadlineSeconds = -1.0;

    for (ServiceRequest* request :
         {&bad_model, &no_axes, &bad_batch, &bad_deadline}) {
        ServiceResponse response =
            service.wait(service.submit(std::move(*request)));
        EXPECT_EQ(response.status, RequestStatus::kRejected);
        EXPECT_EQ(response.diag.code, ErrorCode::kInvalidRequest);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_EQ(stats.answered, 4u);
    EXPECT_EQ(stats.rejected, 4u);
}

TEST_F(ServiceTest, ExhaustiveRequestCompletesAndMemoizes)
{
    ServiceOptions options;
    DseService service(options);

    ServiceResponse first = service.wait(service.submit(smallRequest()));
    ASSERT_EQ(first.status, RequestStatus::kCompleted)
        << first.diag.message;
    ASSERT_EQ(first.results.size(), 8u);
    EXPECT_EQ(first.evaluated, 8u);
    EXPECT_EQ(first.storeHits, 0u);
    for (uint8_t done : first.completed)
        EXPECT_EQ(done, 1);
    for (const ServicePoint& point : first.results) {
        EXPECT_GT(point.util, 0.0);
        EXPECT_GT(point.throughput, 0.0);
    }

    // The identical request is served entirely from the (in-memory)
    // QoR store: same answers, zero recomputation.
    ServiceResponse second = service.wait(service.submit(smallRequest()));
    ASSERT_EQ(second.status, RequestStatus::kCompleted);
    EXPECT_EQ(second.storeHits, 8u);
    EXPECT_EQ(second.evaluated, 0u);
    for (size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(second.results[i].util, first.results[i].util);
        EXPECT_EQ(second.results[i].throughput,
                  first.results[i].throughput);
    }
}

TEST_F(ServiceTest, FaultedRunsAreBitIdenticalAtAnyThreadCount)
{
    // The acceptance contract: same faults, same failures, and
    // surviving points byte-equal to a clean run — at 1 and 2 workers.
    // Retries are off so the injected failures themselves stay visible;
    // each run uses a fresh service (empty store), so every lookup
    // misses and every point genuinely rolls the estimator fault dice.
    auto runFaulted = [](unsigned threads) {
        ServiceOptions options;
        options.sweepThreads = threads;
        options.maxRetries = 0;
        DseService service(options);
        setFaultConfig(faultsAt(FaultSite::kEstimator, 42, 0.5));
        ServiceResponse response =
            service.wait(service.submit(smallRequest()));
        setFaultConfig(FaultConfig());
        return response;
    };

    DseService clean_service((ServiceOptions()));
    ServiceResponse clean =
        clean_service.wait(clean_service.submit(smallRequest()));
    ASSERT_EQ(clean.status, RequestStatus::kCompleted)
        << clean.diag.message;

    ServiceResponse fault1 = runFaulted(1);
    ServiceResponse fault2 = runFaulted(2);

    ASSERT_EQ(clean.results.size(), 8u);
    ASSERT_EQ(fault1.completed.size(), 8u);
    // Some (not all) points must fail for this test to mean anything —
    // seed 42 at rate 0.5 over keys 0..7 is a fixed, known verdict set.
    ASSERT_FALSE(fault1.failures.empty());
    EXPECT_LT(fault1.failures.size(), 8u);

    ASSERT_EQ(fault1.failures.size(), fault2.failures.size());
    for (size_t i = 0; i < fault1.failures.size(); ++i) {
        EXPECT_EQ(fault1.failures[i].index, fault2.failures[i].index);
        EXPECT_EQ(fault1.failures[i].diag.code,
                  fault2.failures[i].diag.code);
    }
    for (size_t i = 0; i < 8; ++i) {
        ASSERT_EQ(fault1.completed[i], fault2.completed[i]) << i;
        if (!fault1.completed[i])
            continue;
        // Survivors match each other and the clean reference exactly.
        EXPECT_EQ(fault1.results[i].util, fault2.results[i].util) << i;
        EXPECT_EQ(fault1.results[i].throughput,
                  fault2.results[i].throughput)
            << i;
        EXPECT_EQ(fault1.results[i].util, clean.results[i].util) << i;
        EXPECT_EQ(fault1.results[i].throughput, clean.results[i].throughput)
            << i;
    }
}

TEST_F(ServiceTest, PointRetriesRecoverTransientFaults)
{
    // Rate 0.4 faults some of the 8 points; the deterministic re-roll
    // under hash(index, attempt) recovers them (two attempts at 0.4
    // leave ~2.6% residual per faulted point), so with retries on the
    // request completes with every point evaluated.
    ServiceOptions options;
    options.maxRetries = 4;
    DseService service(options);
    setFaultConfig(faultsAt(FaultSite::kEstimator, 7, 0.4));
    ServiceResponse response = service.wait(service.submit(smallRequest()));
    setFaultConfig(FaultConfig());

    ASSERT_EQ(response.status, RequestStatus::kCompleted)
        << response.diag.message;
    EXPECT_GT(response.pointRetries, 0u);
    EXPECT_TRUE(response.failures.empty());
    for (uint8_t done : response.completed)
        EXPECT_EQ(done, 1);
    EXPECT_EQ(service.stats().pointRetries, response.pointRetries);
}

TEST_F(ServiceTest, RequestLevelFaultExhaustsRetriesIntoFailed)
{
    // Rate 1.0 on the service site: the request re-rolls maxRetries
    // times and then fails terminally — never aborts, never hangs.
    ServiceOptions options;
    options.maxRetries = 2;
    DseService service(options);
    setFaultConfig(faultsAt(FaultSite::kService, 42, 1.0));
    ServiceResponse response = service.wait(service.submit(smallRequest()));
    setFaultConfig(FaultConfig());

    EXPECT_EQ(response.status, RequestStatus::kFailed);
    EXPECT_EQ(response.diag.code, ErrorCode::kFaultInjected);
    EXPECT_EQ(response.requestRetries, 2u);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.requestRetries, 2u);
}

TEST_F(ServiceTest, DeadlineExhaustedWhileQueuedAnswersPartial)
{
    ServiceOptions options;
    DseService service(options);
    ServiceRequest request = smallRequest();
    request.deadlineSeconds = 1e-9;  // gone before it can be dequeued
    ServiceResponse response = service.wait(service.submit(request));
    EXPECT_EQ(response.status, RequestStatus::kPartial);
    EXPECT_EQ(response.diag.code, ErrorCode::kDeadlineExceeded);
    EXPECT_TRUE(response.results.empty());
}

// ---------------------------------------------------------------------------
// Admission control and shutdown.
// ---------------------------------------------------------------------------

/** Occupy one executor lane deterministically: a full-grid sweep takes
 * seconds on any machine, so until its id is answered the lane is busy
 * and (at concurrency 1) the queue behind it is static. Returns once
 * the request left the queue, i.e. the lane owns it. */
uint64_t
submitBlocker(DseService& service)
{
    ServiceRequest request = smallRequest();
    request.grid = bigGrid();
    uint64_t id = service.submit(request);
    while (service.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return id;
}

TEST_F(ServiceTest, OverloadShedsAtDepthBoundAndDegradesBelowIt)
{
    ServiceOptions options;
    options.concurrency = 1;  // the only lane is pinned by the blocker
    options.maxQueueDepth = 2;
    options.degradeQueueDepth = 1;
    DseService service(options);

    const uint64_t blocker = submitBlocker(service);
    // The lane sweeps for seconds; these submits see a static queue.
    const uint64_t plain = service.submit(smallRequest());     // depth 0->1
    const uint64_t degraded = service.submit(smallRequest());  // depth 1->2
    const uint64_t shed = service.submit(smallRequest());      // at bound

    ServiceResponse shed_response = service.wait(shed);
    EXPECT_EQ(shed_response.status, RequestStatus::kShed);
    EXPECT_EQ(shed_response.diag.code, ErrorCode::kOverloaded);

    // Drain the two queued requests via graceful shutdown: both get
    // terminal kShutdown answers, and the degraded flag is preserved.
    service.beginShutdown();
    ServiceResponse plain_response = service.wait(plain);
    EXPECT_EQ(plain_response.status, RequestStatus::kRejected);
    EXPECT_EQ(plain_response.diag.code, ErrorCode::kShutdown);
    EXPECT_FALSE(plain_response.degraded);
    ServiceResponse degraded_response = service.wait(degraded);
    EXPECT_EQ(degraded_response.status, RequestStatus::kRejected);
    EXPECT_TRUE(degraded_response.degraded);

    // The in-flight blocker is stopped early with partial results —
    // shutdown never orphans it.
    ServiceResponse blocker_response = service.wait(blocker);
    EXPECT_EQ(blocker_response.status, RequestStatus::kPartial);
    EXPECT_EQ(blocker_response.diag.code, ErrorCode::kShutdown);

    // A submit after shutdown is rejected, still with a response.
    ServiceResponse late = service.wait(service.submit(smallRequest()));
    EXPECT_EQ(late.status, RequestStatus::kRejected);
    EXPECT_EQ(late.diag.code, ErrorCode::kShutdown);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 5u);
    EXPECT_EQ(stats.answered, 5u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.rejected, 3u);
    EXPECT_EQ(stats.partial, 1u);
    EXPECT_EQ(stats.degraded, 1u);
}

TEST_F(ServiceTest, StaleQueuedRequestsAreShedAtDequeue)
{
    ServiceOptions options;
    options.concurrency = 1;
    options.maxQueueAgeSeconds = 0.2;
    options.maxRetries = 2;
    options.retryBackoffMs = 500.0;
    DseService service(options);

    // Occupy the lane for ~1.5s of point-level retry backoff, which
    // waits on this lane: every point of the blocker faults, so its
    // retry schedule waits 500ms + 1s between deterministic re-rolls.
    setFaultConfig(faultsAt(FaultSite::kEstimator, 42, 1.0));
    const uint64_t blocker = service.submit(smallRequest());
    while (service.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Queued behind that with a 0.2s age bound: by the time the lane
    // reaches it, running it would be overload amplification — it is
    // shed instead.
    const uint64_t stale = service.submit(smallRequest());

    ServiceResponse response = service.wait(stale);
    EXPECT_EQ(response.status, RequestStatus::kShed);
    EXPECT_EQ(response.diag.code, ErrorCode::kOverloaded);
    EXPECT_GE(response.queueSeconds, 0.2);
    ServiceResponse blocker_response = service.wait(blocker);
    setFaultConfig(FaultConfig());
    EXPECT_EQ(blocker_response.failures.size(), 8u);
    EXPECT_GE(blocker_response.pointRetries, 8u);
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

TEST_F(ServiceTest, RequestBackoffHoldsOnlyItsLane)
{
    // Find a fault key whose service-site verdict fires on attempts
    // 0..2 (that request exhausts its retries) and one that never
    // fires on attempt 0 (that request sails through). The verdict is
    // a pure function of (seed, site, scope key), so probing here sees
    // exactly what the service will see.
    setFaultConfig(faultsAt(FaultSite::kService, 42, 0.5));
    auto fires = [](uint64_t key, size_t attempt) {
        FaultScope scope(attempt == 0 ? key
                                      : hashCombine(hashMix(key), attempt));
        return shouldInjectFault(FaultSite::kService);
    };
    uint64_t blocked_key = 0;
    uint64_t free_key = 0;
    for (uint64_t key = 1; key < 4096; ++key) {
        if (blocked_key == 0 && fires(key, 0) && fires(key, 1) &&
            fires(key, 2))
            blocked_key = key;
        if (free_key == 0 && !fires(key, 0))
            free_key = key;
        if (blocked_key != 0 && free_key != 0)
            break;
    }
    ASSERT_NE(blocked_key, 0u);
    ASSERT_NE(free_key, 0u);

    // Two lanes, real backoff: the faulted request backs off 1s + 2s on
    // its own lane, and the free request must be answered on the other
    // lane while the faulted one is still waiting.
    ServiceOptions options;
    options.concurrency = 2;
    options.maxRetries = 2;
    options.retryBackoffMs = 1000.0;
    DseService service(options);

    ServiceRequest blocked_request = smallRequest();
    blocked_request.faultKey = blocked_key;
    const uint64_t blocked = service.submit(blocked_request);
    ServiceRequest free_request = smallRequest();
    free_request.faultKey = free_key;
    const uint64_t free_id = service.submit(free_request);

    ServiceResponse free_response = service.wait(free_id);
    EXPECT_EQ(free_response.status, RequestStatus::kCompleted)
        << free_response.diag.message;
    // The faulted request is mid-backoff, not answered yet.
    EXPECT_EQ(service.stats().failed, 0u);

    ServiceResponse blocked_response = service.wait(blocked);
    setFaultConfig(FaultConfig());
    EXPECT_EQ(blocked_response.status, RequestStatus::kFailed);
    EXPECT_EQ(blocked_response.diag.code, ErrorCode::kFaultInjected);
    EXPECT_EQ(blocked_response.requestRetries, 2u);
    EXPECT_EQ(service.stats().requestRetries, 2u);
}

TEST_F(ServiceTest, ShutdownRunsRemainingRetryScheduleWithoutDelay)
{
    // A minute of backoff that must never actually be waited: shutdown
    // cuts the wait short and the remaining retry schedule runs without
    // it (backoff shapes timing, never decisions), so the request still
    // fails with its full deterministic retry count — fast.
    ServiceOptions options;
    options.concurrency = 1;
    options.maxRetries = 2;
    options.retryBackoffMs = 60000.0;
    DseService service(options);
    setFaultConfig(faultsAt(FaultSite::kService, 42, 1.0));
    const auto start = std::chrono::steady_clock::now();
    const uint64_t id = service.submit(smallRequest());
    // Dequeued means dispatched: attempt 0 fires and the lane backs off.
    while (service.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    service.beginShutdown();
    ServiceResponse response = service.wait(id);
    setFaultConfig(FaultConfig());
    EXPECT_EQ(response.status, RequestStatus::kFailed);
    EXPECT_EQ(response.diag.code, ErrorCode::kFaultInjected);
    EXPECT_EQ(response.requestRetries, 2u);
    EXPECT_LT(secondsSince(start), 5.0);
}

TEST_F(ServiceTest, RequestBackoffPastTheDeadlineAnswersPartial)
{
    // Every attempt faults and the first backoff (1s) outlasts the 0.3s
    // deadline: the wait ends at the deadline and the request is
    // answered deadline-exceeded before it rolls attempt 1.
    ServiceOptions options;
    options.concurrency = 1;
    options.maxRetries = 2;
    options.retryBackoffMs = 1000.0;
    DseService service(options);
    setFaultConfig(faultsAt(FaultSite::kService, 42, 1.0));
    ServiceRequest request = smallRequest();
    request.deadlineSeconds = 0.3;
    const auto start = std::chrono::steady_clock::now();
    ServiceResponse response = service.wait(service.submit(request));
    setFaultConfig(FaultConfig());
    EXPECT_EQ(response.status, RequestStatus::kPartial);
    EXPECT_EQ(response.diag.code, ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(response.requestRetries, 1u);
    EXPECT_LT(secondsSince(start), 0.9);
}

TEST_F(ServiceTest, BackoffNeverOutlivesTheDeadline)
{
    // Every point faults; the first point-level backoff (1s) would end
    // long after the 0.3s deadline. The wait is cut at the deadline and
    // no retry follows it.
    ServiceOptions options;
    options.concurrency = 1;
    options.maxRetries = 2;
    options.retryBackoffMs = 1000.0;
    DseService service(options);
    // Build the key's prototype first, so the deadline is spent on the
    // sweep and the backoff, not on lowering LeNet. Another grid has
    // other point fingerprints: the request below still misses.
    ServiceRequest warm = smallRequest();
    warm.grid = DesignPointGrid();
    warm.grid.addDirectiveAxis("kpf1", {1}, 1, "kpf_loop");
    ASSERT_EQ(service.wait(service.submit(warm)).status,
              RequestStatus::kCompleted);
    setFaultConfig(faultsAt(FaultSite::kEstimator, 42, 1.0));
    ServiceRequest request = smallRequest();
    request.deadlineSeconds = 0.3;
    ServiceResponse response = service.wait(service.submit(request));
    setFaultConfig(FaultConfig());
    EXPECT_LT(response.queueSeconds + response.runSeconds, 0.9);
    EXPECT_EQ(response.pointRetries, 0u);
}

TEST_F(ServiceTest, ShutdownCutsAPointBackoffShort)
{
    // Every point faults and the first point-level backoff is a minute
    // long; shutdown must end it at once, not after the minute.
    ServiceOptions options;
    options.concurrency = 1;
    options.maxRetries = 2;
    options.retryBackoffMs = 60000.0;
    DseService service(options);
    setFaultConfig(faultsAt(FaultSite::kEstimator, 42, 1.0));
    const uint64_t id = service.submit(smallRequest());
    // All 8 store lookups missed: the sweep is over and the lane is
    // entering (or in) its backoff.
    while (service.storeStats().misses < 8)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto start = std::chrono::steady_clock::now();
    service.beginShutdown();
    ServiceResponse response = service.wait(id);
    setFaultConfig(FaultConfig());
    EXPECT_LT(secondsSince(start), 5.0);
    EXPECT_EQ(response.failures.size(), 8u);
    EXPECT_EQ(response.pointRetries, 0u);
}

TEST_F(ServiceTest, WeightedFairQueuingPreventsStarvation)
{
    // Six heavy-tenant requests queued ahead of one light-tenant
    // request behind a busy lane. FIFO would run all six first; under
    // deficit round robin (heavy weighted 2, light 1) the light request
    // is dispatched after at most two heavies.
    ServiceOptions options;
    options.concurrency = 1;
    options.tenantWeights["heavy"] = 2;
    DseService service(options);

    const uint64_t blocker = submitBlocker(service);
    std::vector<uint64_t> heavy;
    for (int i = 0; i < 6; ++i) {
        ServiceRequest request = smallRequest();
        request.tenant = "heavy";
        heavy.push_back(service.submit(request));
    }
    ServiceRequest light_request = smallRequest();
    light_request.tenant = "light";
    const uint64_t light = service.submit(light_request);

    service.wait(blocker);
    ServiceResponse light_response = service.wait(light);
    ASSERT_EQ(light_response.status, RequestStatus::kCompleted)
        << light_response.diag.message;
    size_t after_light = 0;
    for (uint64_t id : heavy) {
        ServiceResponse response = service.wait(id);
        ASSERT_EQ(response.status, RequestStatus::kCompleted);
        // Everything was enqueued at once and dispatch is serial, so
        // queueSeconds orders the lane's dispatch sequence.
        if (response.queueSeconds > light_response.queueSeconds)
            ++after_light;
    }
    EXPECT_GE(after_light, 4u);
}

TEST_F(ServiceTest, ConcurrentRequestsShareTheLanes)
{
    ServiceOptions options;
    options.concurrency = 4;
    DseService service(options);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        ServiceRequest request = smallRequest();
        request.grid = bigGrid();
        request.strategy.kind = StrategyKind::kRandom;
        request.strategy.budget = 64;
        request.strategy.seed = 7;
        ids.push_back(service.submit(request));
    }
    for (uint64_t id : ids) {
        ServiceResponse response = service.wait(id);
        EXPECT_EQ(response.status, RequestStatus::kCompleted)
            << response.diag.message;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.answered, 4u);
    // Identical sweeps take long enough that at least two of the four
    // lanes must have overlapped.
    EXPECT_GE(stats.maxInFlight, 2u);
}

TEST_F(ServiceTest, ResponsesAreBitIdenticalAcrossConcurrency)
{
    // The acceptance contract: the same 8-request multi-tenant mix,
    // clean and under "any"-site faults, must produce byte-identical
    // per-request payloads at concurrency 1, 2 and 4 — every
    // retry/fault decision keys on (point or faultKey, attempt), never
    // on timing or lane placement.
    auto runMix = [](unsigned concurrency, bool faulted) {
        ServiceOptions options;
        options.concurrency = concurrency;
        options.sweepThreads = 2;
        options.maxRetries = 2;
        DseService service(options);
        if (faulted) {
            FaultConfig config;
            config.enabled = true;
            config.siteMask = faultSiteBit(FaultSite::kEstimator) |
                              faultSiteBit(FaultSite::kStore) |
                              faultSiteBit(FaultSite::kService);
            config.seed = 42;
            config.rate = 0.05;
            setFaultConfig(config);
        }
        std::vector<uint64_t> ids;
        for (size_t seq = 0; seq < 8; ++seq) {
            ServiceRequest request = smallRequest();
            request.tenant = strCat("t", seq % 3);
            request.faultKey = seq + 1;
            if (seq % 2 == 1) {
                request.strategy.kind = StrategyKind::kRandom;
                request.strategy.budget = 4;
                request.strategy.seed = 42 + seq;
            }
            ids.push_back(service.submit(request));
        }
        std::vector<ServiceResponse> responses;
        for (uint64_t id : ids)
            responses.push_back(service.wait(id));
        setFaultConfig(FaultConfig());
        return responses;
    };

    for (bool faulted : {false, true}) {
        std::vector<ServiceResponse> base = runMix(1, faulted);
        for (unsigned concurrency : {2u, 4u}) {
            std::vector<ServiceResponse> got = runMix(concurrency, faulted);
            ASSERT_EQ(got.size(), base.size());
            for (size_t i = 0; i < base.size(); ++i) {
                const ServiceResponse& a = base[i];
                const ServiceResponse& b = got[i];
                EXPECT_EQ(a.status, b.status)
                    << "request " << i << " at concurrency " << concurrency;
                EXPECT_EQ(a.requestRetries, b.requestRetries) << i;
                EXPECT_EQ(a.completed, b.completed) << i;
                ASSERT_EQ(a.results.size(), b.results.size()) << i;
                for (size_t p = 0; p < a.results.size(); ++p)
                    EXPECT_EQ(std::memcmp(&a.results[p], &b.results[p],
                                          sizeof(ServicePoint)),
                              0)
                        << "request " << i << " point " << p;
                ASSERT_EQ(a.failures.size(), b.failures.size()) << i;
                for (size_t f = 0; f < a.failures.size(); ++f) {
                    EXPECT_EQ(a.failures[f].index, b.failures[f].index);
                    EXPECT_EQ(a.failures[f].diag.code,
                              b.failures[f].diag.code);
                }
            }
        }
    }
}

TEST_F(ServiceTest, ShutdownMidSweepYieldsPartialResults)
{
    ServiceOptions options;
    DseService service(options);

    // The full 2400-point Table 1 grid: seconds of sweep on any
    // machine, so beginShutdown() lands mid-run.
    ServiceRequest request = smallRequest();
    request.grid = DesignPointGrid();
    request.grid.addDirectiveAxis("kpf1", {1, 2, 3, 6}, 1, "kpf_loop");
    request.grid.addDirectiveAxis("cpf1", {1}, 1, "cpf_loop");
    request.grid.addDirectiveAxis("kpf2", {1, 2, 4, 8, 16}, 2, "kpf_loop");
    request.grid.addDirectiveAxis("cpf2", {1, 2, 3, 6}, 2, "cpf_loop");
    request.grid.addDirectiveAxis("kpf3", {1, 2, 3, 4, 6, 8}, 3,
                                  "kpf_loop");
    request.grid.addDirectiveAxis("cpf3", {1, 2, 4, 8, 16}, 3, "cpf_loop");
    const uint64_t id = service.submit(request);
    while (service.queueDepth() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    service.beginShutdown();

    ServiceResponse response = service.wait(id);
    ASSERT_EQ(response.status, RequestStatus::kPartial);
    EXPECT_EQ(response.diag.code, ErrorCode::kShutdown);
    EXPECT_EQ(response.results.size(), request.grid.size());
    EXPECT_LT(response.evaluated, request.grid.size());
}

// ---------------------------------------------------------------------------
// Persistence across service instances (the warm-start acceptance bar).
// ---------------------------------------------------------------------------

TEST_F(ServiceTest, RestartWarmStartsFromPersistentStore)
{
    const std::string path = tempPath("hida_service_warm.qst");
    ServiceOptions options;
    options.storePath = path;
    {
        DseService service(options);
        ServiceResponse response =
            service.wait(service.submit(smallRequest()));
        ASSERT_EQ(response.status, RequestStatus::kCompleted)
            << response.diag.message;
        EXPECT_EQ(response.evaluated, 8u);
        service.shutdown();  // flushes the store
    }
    // "Restarted process": a brand-new service on the same path serves
    // the identical workload entirely from disk — hit rate 100%,
    // comfortably above the >50% acceptance bar.
    DseService service(options);
    ServiceResponse response = service.wait(service.submit(smallRequest()));
    ASSERT_EQ(response.status, RequestStatus::kCompleted);
    EXPECT_EQ(response.storeHits, 8u);
    EXPECT_EQ(response.evaluated, 0u);
    const QorStore::Stats store = service.storeStats();
    EXPECT_EQ(store.restored, 8u);
    EXPECT_GT(static_cast<double>(store.hits),
              0.5 * static_cast<double>(store.hits + store.misses));
    std::remove(path.c_str());
}

TEST_F(ServiceTest, TotalityHoldsUnderMixedFaultTraffic)
{
    // The scaled-down soak: "any"-site faults, mixed strategies, two
    // workers — every request still gets exactly one terminal answer.
    ServiceOptions options;
    options.sweepThreads = 2;
    options.maxRetries = 2;
    DseService service(options);
    FaultConfig config;
    config.enabled = true;
    config.siteMask = faultSiteBit(FaultSite::kEstimator) |
                      faultSiteBit(FaultSite::kPass) |
                      faultSiteBit(FaultSite::kVerifier) |
                      faultSiteBit(FaultSite::kStore) |
                      faultSiteBit(FaultSite::kService);
    config.seed = 42;
    config.rate = 0.05;
    setFaultConfig(config);

    std::vector<uint64_t> ids;
    for (size_t seq = 0; seq < 8; ++seq) {
        ServiceRequest request = smallRequest();
        if (seq % 2 == 1) {
            request.strategy.kind = StrategyKind::kRandom;
            request.strategy.budget = 4;
            request.strategy.seed = 42 + seq;
        }
        ids.push_back(service.submit(request));
    }
    size_t terminal = 0;
    for (uint64_t id : ids) {
        ServiceResponse response = service.wait(id);
        EXPECT_TRUE(response.status == RequestStatus::kCompleted ||
                    response.status == RequestStatus::kPartial ||
                    response.status == RequestStatus::kFailed)
            << requestStatusName(response.status);
        ++terminal;
    }
    setFaultConfig(FaultConfig());
    EXPECT_EQ(terminal, ids.size());
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, ids.size());
    EXPECT_EQ(stats.answered, ids.size());
}

TEST_F(ServiceTest, RejectedPrototypeFailsEveryRequestOnItsKey)
{
    // One prototype per session key: the first request on the key builds
    // and verifies it, concurrent requests on the key wait for that
    // build, and every one of them is answered with its cached verdict.
    ServiceOptions options;
    options.concurrency = 4;
    options.sweepThreads = 2;
    DseService service(options);
    setFaultConfig(faultsAt(FaultSite::kVerifier, 42, 1.0));

    constexpr size_t kClients = 8;
    std::vector<ServiceResponse> responses(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&service, &responses, c] {
            responses[c] = service.wait(service.submit(smallRequest()));
        });
    for (std::thread& client : clients)
        client.join();

    const Diagnostic& verdict = responses.front().diag;
    EXPECT_EQ(verdict.code, ErrorCode::kFaultInjected);
    for (const ServiceResponse& response : responses) {
        EXPECT_EQ(response.status, RequestStatus::kFailed)
            << requestStatusName(response.status);
        EXPECT_EQ(response.diag.code, verdict.code);
        EXPECT_EQ(response.diag.opPath, verdict.opPath);
        EXPECT_EQ(response.diag.message, verdict.message);
        EXPECT_TRUE(response.results.empty());
    }
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, kClients);
    EXPECT_EQ(stats.answered, stats.submitted);
    EXPECT_EQ(stats.failed, kClients);

    // The rejection is cached per key: with injection off, the same key
    // still fails with the same verdict instead of rebuilding.
    setFaultConfig(FaultConfig());
    ServiceResponse again = service.wait(service.submit(smallRequest()));
    EXPECT_EQ(again.status, RequestStatus::kFailed);
    EXPECT_EQ(again.diag.code, verdict.code);
    EXPECT_EQ(again.diag.message, verdict.message);
    stats = service.stats();
    EXPECT_EQ(stats.failed, kClients + 1);
    EXPECT_EQ(stats.answered, stats.submitted);
}

TEST_F(ServiceTest, FromEnvReadsTheDocumentedKnobs)
{
    setenv("HIDA_SERVICE_CONCURRENCY", "3", 1);
    setenv("HIDA_SERVICE_WORKERS", "3", 1);
    setenv("HIDA_SERVICE_QUEUE_DEPTH", "5", 1);
    setenv("HIDA_SERVICE_RETRIES", "7", 1);
    setenv("HIDA_SERVICE_TENANT_WEIGHTS", "alice=4,bob=2", 1);
    setenv("HIDA_QOR_STORE", "/tmp/hida-env-store.qst", 1);
    ServiceOptions options = ServiceOptions::fromEnv();
    unsetenv("HIDA_SERVICE_CONCURRENCY");
    unsetenv("HIDA_SERVICE_WORKERS");
    unsetenv("HIDA_SERVICE_QUEUE_DEPTH");
    unsetenv("HIDA_SERVICE_RETRIES");
    unsetenv("HIDA_SERVICE_TENANT_WEIGHTS");
    unsetenv("HIDA_QOR_STORE");
    EXPECT_EQ(options.concurrency, 3u);
    EXPECT_EQ(options.sweepThreads, 3u);
    EXPECT_EQ(options.maxQueueDepth, 5u);
    EXPECT_EQ(options.maxRetries, 7u);
    ASSERT_EQ(options.tenantWeights.size(), 2u);
    EXPECT_EQ(options.tenantWeights["alice"], 4u);
    EXPECT_EQ(options.tenantWeights["bob"], 2u);
    EXPECT_EQ(options.storePath, "/tmp/hida-env-store.qst");
}

} // namespace
} // namespace hida
