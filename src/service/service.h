#ifndef HIDA_SERVICE_SERVICE_H
#define HIDA_SERVICE_SERVICE_H

/**
 * @file
 * Long-lived, multi-tenant DSE service core (docs/service.md): a
 * fair-queued scheduler in front of the resilient sweep engine, built
 * so the expensive artifacts — one lowered prototype per session key,
 * that key's warm QorEstimator clones, and the persistent
 * fingerprint-keyed QoR store — outlive any single request or process.
 *
 * Robustness contract (the whole point — pinned by
 * tests/service_test.cc):
 *  - Every submitted request receives exactly one terminal
 *    ServiceResponse, always: completed, partial (deadline/shutdown),
 *    shed (kOverloaded), rejected (kInvalidRequest/kShutdown) or failed
 *    (kService fault retries exhausted). No tenant-triggerable
 *    condition — malformed request, faulting point, dying worker,
 *    overload burst, corrupt store file — ever aborts the process or
 *    another tenant's request.
 *  - Per-request deadlines ride the existing SweepLimits plumbing; the
 *    wall clock spent queued counts against the deadline.
 *  - Transient per-point failures (kFaultInjected, kWorkerFailed) get
 *    bounded retry-with-backoff, re-rolled serially in grid order with
 *    FaultScope(hash(index, attempt)) — the same deterministic key
 *    discipline as the sweep engine, so a fault-injected run is
 *    bit-identical at any thread count. Request-level kService faults
 *    get the same treatment keyed on the request id (or the caller's
 *    faultKey). Both retry loops back off the same way: on the executor
 *    lane that owns the request, and never past its deadline or a
 *    shutdown, so a backing-off request holds only its own lane.
 *  - Admission control sheds (or, when configured, degrades to a
 *    sampled strategy with a smaller budget) once the queue exceeds a
 *    depth/age bound, so overload answers fast instead of timing out
 *    everyone.
 *  - Graceful shutdown: beginShutdown() — or SIGINT/SIGTERM via a
 *    CancelToken chained to processShutdownToken() — finishes in-flight
 *    requests early (partial results), answers every queued request
 *    with kShutdown, cuts every backoff short (a request-level retry
 *    schedule still runs to its end, without the waits: backoff shapes
 *    timing, never decisions), and flushes the store.
 *
 * Threading model (ROADMAP rules): submit()/wait() are any-thread.
 * ServiceOptions::concurrency executor threads each run one request at
 * a time end to end, drawn from per-tenant FIFOs under deficit-weighted
 * fair queuing (src/service/fair_queue.h) so one chatty tenant cannot
 * starve the rest. Each session key (model, batch, flow) has one
 * Session: a prototype lowered and verified once, on the first request,
 * and only read after that, plus the key's pool of idle clones. Within
 * a request, the sweep runs through a StrategyWorkerPool of
 * ServiceOptions::sweepThreads workers, each claiming a private clone
 * from the key's pool (or cloning the prototype when it is empty); the
 * request hands its clones back once the sweep has joined its workers,
 * so the next request on the key starts with warm estimator caches.
 * Two requests never touch the same clone, and concurrent clones of
 * one read-only prototype are safe. A housekeeping thread batches
 * QoR-store snapshots to disk off the request threads on a 50 ms tick.
 * Results are bit-identical at any concurrency x sweepThreads
 * combination: every retry/fault/backoff decision keys on (point or
 * request, attempt), never on timing or executor placement.
 */

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/driver/driver.h"
#include "src/dse/qor_store.h"
#include "src/dse/strategy.h"
#include "src/dse/sweep.h"
#include "src/service/fair_queue.h"

namespace hida {

/**
 * One tenant request: which prototype (model/batch/dataflow — the
 * session key), which design space (grid), and how to search it
 * (strategy options incl. budget). deadlineSeconds covers queue wait
 * plus sweep time (0 = unbounded).
 */
struct ServiceRequest {
    std::string model = "lenet";  ///< dnnModelNames() entry or "lenet".
    int64_t batch = 1;            ///< LeNet batch (ignored otherwise).
    bool dataflow = true;         ///< kHida vs kVitis flow.
    DesignPointGrid grid;
    StrategyOptions strategy;
    double deadlineSeconds = 0.0;
    /** Fair-queuing lane ("" = the shared default tenant). Dispatch
     * slots are granted per tenant under deficit round robin with the
     * weights in ServiceOptions::tenantWeights. */
    std::string tenant;
    /** Deterministic key for request-level fault/retry decisions; 0
     * (default) uses the request id. Benches set it to their workload
     * sequence number so per-request payloads are reproducible even
     * when concurrent clients race on submission order. */
    uint64_t faultKey = 0;
};

/** Trivially copyable per-point result: the QoR store payload. */
struct ServicePoint {
    double util = 0.0;        ///< max resource utilization fraction.
    double throughput = 0.0;  ///< images/s (batch-adjusted).
};

/** Terminal state of one request. */
enum class RequestStatus : uint8_t {
    kCompleted,  ///< Ran to the strategy's natural end.
    kPartial,    ///< Stopped early (deadline/shutdown); results valid.
    kShed,       ///< Admission control refused it (kOverloaded).
    kRejected,   ///< Never run: kInvalidRequest or kShutdown.
    kFailed,     ///< Request-level failure (retries exhausted).
};

/** Stable name of @p status ("completed", "partial", ...). */
const char* requestStatusName(RequestStatus status);

/**
 * The exactly-once terminal answer. results/completed are indexed by
 * grid index (like StrategyOutcome); failures lists the points that
 * stayed failed after retries, in grid order.
 */
struct ServiceResponse {
    uint64_t id = 0;
    RequestStatus status = RequestStatus::kFailed;
    bool degraded = false;  ///< Admitted with a downgraded strategy.
    Diagnostic diag;        ///< Cause for every non-kCompleted status.
    std::vector<ServicePoint> results;
    std::vector<uint8_t> completed;
    std::vector<PointFailure> failures;
    /** Sweep workers retired by escaped exceptions (kWorkerFailed). */
    std::vector<Diagnostic> workerFailures;
    size_t evaluated = 0;       ///< Points newly evaluated (not store hits).
    size_t storeHits = 0;       ///< Points served from the QoR store.
    size_t pointRetries = 0;    ///< Per-point retry attempts spent.
    size_t requestRetries = 0;  ///< Request-level retry attempts spent.
    /** Wall clock from submit to dispatch (queue wait only; retry
     * backoff happens on the lane and counts as run time). */
    double queueSeconds = 0.0;
    double runSeconds = 0.0;
};

/** Service tuning; fromEnv() reads the documented HIDA_SERVICE_* knobs. */
struct ServiceOptions {
    /** In-flight request executors (HIDA_SERVICE_CONCURRENCY; 0 = auto:
     * min(4, hardware cores)). Results are bit-identical at any
     * value — concurrency shapes wall clock only. */
    unsigned concurrency = 0;
    /** Worker threads per request sweep (HIDA_SERVICE_WORKERS). */
    unsigned sweepThreads = 1;
    /** Dispatch slots per fair-queue visit for named tenants
     * (HIDA_SERVICE_TENANT_WEIGHTS, "name=w,name=w"); unnamed tenants
     * weigh 1. */
    std::map<std::string, uint64_t> tenantWeights;
    /** Admission bound: submit() sheds at this many *queued-not-yet-
     * started* requests (HIDA_SERVICE_QUEUE_DEPTH; 0 = unbounded). */
    size_t maxQueueDepth = 64;
    /** Degrade instead of shed from this depth up (0 = never): the
     * request is admitted with a random strategy and an eighth of its
     * budget, marked degraded in its response. */
    size_t degradeQueueDepth = 0;
    /** Shed a queued request older than this at dequeue (0 = never). */
    double maxQueueAgeSeconds = 0.0;
    /** Bounded retries per failed point / failed request
     * (HIDA_SERVICE_RETRIES). */
    size_t maxRetries = 2;
    /** Backoff before retry attempt k: backoffMs * 2^(k-1). Zero keeps
     * tests instant; determinism never depends on it. Request- and
     * point-level retries both wait on the request's own executor lane,
     * cut short by its deadline or by shutdown. */
    double retryBackoffMs = 0.0;
    /** QoR store path (HIDA_QOR_STORE; "" = in-memory memo only). */
    std::string storePath;
    /** HIDA_DSE_ORDER, validated at startup. The executor does not
     * read it: a request walks the order of its own
     * StrategyOptions::order. */
    SweepSchedule schedule;
    TargetDevice device = TargetDevice::pynqZ2();

    /**
     * Defaults overridden by HIDA_SERVICE_CONCURRENCY /
     * HIDA_SERVICE_WORKERS / HIDA_SERVICE_QUEUE_DEPTH /
     * HIDA_SERVICE_RETRIES / HIDA_SERVICE_TENANT_WEIGHTS /
     * HIDA_QOR_STORE. Malformed numbers or weight lists are user
     * errors (exit kFatalExitCode).
     */
    static ServiceOptions fromEnv();
};

/** Monotone service-wide counters (stats()), plus one high-water mark. */
struct ServiceStats {
    size_t submitted = 0;
    size_t answered = 0;  ///< Terminal responses produced.
    size_t completed = 0;
    size_t partial = 0;
    size_t shed = 0;
    size_t rejected = 0;
    size_t failed = 0;
    size_t degraded = 0;
    size_t pointRetries = 0;
    size_t requestRetries = 0;
    size_t maxInFlight = 0;  ///< Peak concurrently executing requests.
};

class DseService {
  public:
    /** Opens the store and starts the executor + housekeeping threads.
     * A corrupt or foreign store file is reported and degraded to
     * misses — never an error. */
    explicit DseService(ServiceOptions options);
    /** shutdown()s if the owner has not already. */
    ~DseService();

    DseService(const DseService&) = delete;
    DseService& operator=(const DseService&) = delete;

    /**
     * Admit, degrade, or immediately answer (shed/reject) @p request.
     * Always returns a request id whose terminal response wait() will
     * deliver — including for shed and rejected requests, which are
     * answered synchronously here. Any thread.
     */
    uint64_t submit(ServiceRequest request);

    /**
     * Block until @p id's terminal response and consume it. Exactly one
     * wait() per submit() (a second call on the same id panics — the
     * response was already handed out). Any thread.
     */
    ServiceResponse wait(uint64_t id);

    /**
     * Stop admitting, answer every queued request with kShutdown, let
     * in-flight requests finish early (partial results; a request-level
     * retry schedule runs its remaining attempts without the waits),
     * flush the store. Idempotent; also triggered by
     * processShutdownToken() cancellation (SIGINT/SIGTERM). Responses
     * stay waitable after.
     */
    void beginShutdown();

    /** beginShutdown() + join executors and housekeeping. Idempotent. */
    void shutdown();

    ServiceStats stats() const;
    /** Currently queued (admitted, not yet started) requests. */
    size_t queueDepth() const;
    /** Resolved executor-lane count (auto already applied). */
    unsigned concurrency() const { return options_.concurrency; }
    QorStore::Stats storeStats() const { return store_.stats(); }
    /** The service-level cancel token (chained to the process one). */
    CancelToken& cancelToken() { return cancel_; }

  private:
    /** One entry per session key, kept for the life of the service.
     * Everything but `idle` is written once, under `built` by the first
     * request on the key, and only read after that (a rejected
     * prototype's buildDiag is cached too). `idle` holds the key's warm
     * clones; the sweep workers of every request on the key claim from
     * it under `mutex`. */
    struct Session {
        std::once_flag built;
        OwnedModule prototype;
        FlowOptions partitionOptions;
        int64_t batch = 1;
        uint64_t modelHash = 0;  ///< Process-independent store key base.
        std::optional<Diagnostic> buildDiag;  ///< Prototype rejected.
        std::mutex mutex;
        std::vector<std::shared_ptr<CloneSweepWorker>> idle;
    };

    struct Pending {
        uint64_t id = 0;
        ServiceRequest request;
        bool degraded = false;
        std::chrono::steady_clock::time_point enqueued;
    };

    /** A request's deadline. Double-based, so no deadline (max()) and
     * any finite tenant value compare without overflow. */
    using Deadline =
        std::chrono::time_point<std::chrono::steady_clock,
                                std::chrono::duration<double>>;

    void executorMain(unsigned lane);
    void housekeepingMain();
    void runRequest(Pending pending);
    /** @p request's Session, built on first use: concurrent requests on
     * one key wait for that build instead of lowering a copy. */
    Session& sessionFor(const ServiceRequest& request);
    std::shared_ptr<CloneSweepWorker> claimWorker(Session& session);
    static void releaseWorker(Session& session,
                              std::shared_ptr<CloneSweepWorker> worker);
    Result<ServicePoint> evaluatePoint(Session& session,
                                       CloneSweepWorker& worker,
                                       const DesignPointGrid& grid,
                                       size_t index,
                                       const std::vector<int64_t>& values);
    /** The one backoff rule of both retry loops: sleep this lane for
     * retryBackoffMs * 2^(attempt-1) in slices of at most 50 ms,
     * returning early once cancel_ is cancelled (shutdown, or a signal
     * through the chain) or @p deadline arrives. */
    void backoffWait(size_t attempt, Deadline deadline) const;
    void respond(ServiceResponse response);
    void respondLocked(ServiceResponse response);
    /** Answer every queued request with kShutdown. */
    void drainQueuedLocked();

    ServiceOptions options_;
    QorStore store_;
    CancelToken cancel_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_;     ///< Executor wakeups.
    std::condition_variable houseCv_;     ///< Housekeeping wakeups.
    std::condition_variable responseCv_;  ///< wait() wakeups.
    WeightedFairQueue<Pending> queue_;    ///< Admitted, per-tenant DRR.
    size_t inFlight_ = 0;
    std::unordered_map<uint64_t, ServiceResponse> responses_;
    std::unordered_map<uint64_t, uint8_t> outstanding_;  ///< Totality check.
    ServiceStats stats_;
    uint64_t nextId_ = 1;
    bool shuttingDown_ = false;
    bool stop_ = false;

    /** One Session per session key; entries are never erased. */
    std::mutex sessionsMutex_;
    std::unordered_map<std::string, std::unique_ptr<Session>> sessions_;

    std::vector<std::thread> executors_;
    std::thread housekeeper_;
};

} // namespace hida

#endif // HIDA_SERVICE_SERVICE_H
