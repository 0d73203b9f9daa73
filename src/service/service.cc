#include "src/service/service.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "src/models/dnn_models.h"
#include "src/service/shutdown.h"
#include "src/support/env.h"
#include "src/support/fault_inject.h"
#include "src/support/utils.h"
#include "src/transforms/passes.h"

namespace hida {

namespace {

/** Bump whenever ServicePoint's layout *or meaning* (estimator
 * semantics) changes: the store header carries this folded tag, so a
 * process with different semantics treats old files as misses. */
constexpr uint64_t kStoreSchemaVersion = 1;

uint64_t
serviceStoreTag()
{
    return hashCombine(hashMix(UINT64_C(0x71737431)),  // 'qst1'
                       hashCombine(kStoreSchemaVersion,
                                   sizeof(ServicePoint)));
}

/** Process-independent base of this session's store keys: the request
 * coordinates that select the prototype, hashed by *content* (name
 * bytes, not intern ids) like DesignPointGrid::contentHash. */
uint64_t
serviceModelHash(const ServiceRequest& request)
{
    uint64_t h = hashMix(UINT64_C(0x48494441));  // 'HIDA'
    for (unsigned char c : request.model)
        h = hashCombine(h, c);
    h = hashCombine(h, static_cast<uint64_t>(request.batch));
    return hashCombine(h, request.dataflow ? 1 : 0);
}

/** Session key: the coordinates that select the prototype. */
std::string
sessionKey(const ServiceRequest& request)
{
    return strCat(request.model, "|b", request.batch,
                  request.dataflow ? "|df" : "|nodf");
}

bool
knownServiceModel(const std::string& model)
{
    if (model == "lenet")
        return true;
    for (const std::string& name : dnnModelNames())
        if (name == model)
            return true;
    return false;
}

/** Transient per-point failures worth a deterministic re-roll; every
 * other code is a property of the design point itself and would fail
 * identically again. */
bool
transientPointFailure(ErrorCode code)
{
    return code == ErrorCode::kFaultInjected ||
           code == ErrorCode::kWorkerFailed;
}

using Seconds = std::chrono::duration<double>;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return Seconds(std::chrono::steady_clock::now() - start).count();
}

/** Exponential backoff before retry @p attempt (1-based): base *
 * 2^(attempt-1) ms. Timing never feeds any retry *decision*. */
double
backoffMs(double base_ms, size_t attempt)
{
    const unsigned shift = attempt > 16 ? 16 : static_cast<unsigned>(attempt);
    return base_ms * static_cast<double>(1u << (shift - 1));
}

/** Parse HIDA_SERVICE_TENANT_WEIGHTS ("name=w,name=w"). Malformed
 * entries are user errors (exit kFatalExitCode), consistent with the
 * numeric knob parsers in src/support/env.h. */
std::map<std::string, uint64_t>
parseTenantWeights(const char* text)
{
    std::map<std::string, uint64_t> weights;
    const std::string raw = text;
    size_t pos = 0;
    while (pos < raw.size()) {
        size_t end = raw.find(',', pos);
        if (end == std::string::npos)
            end = raw.size();
        const std::string entry = raw.substr(pos, end - pos);
        pos = end + 1;
        if (entry.empty())
            continue;
        const size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size())
            HIDA_FATAL("HIDA_SERVICE_TENANT_WEIGHTS entry '", entry,
                       "' is not name=weight");
        uint64_t weight = 0;
        for (size_t i = eq + 1; i < entry.size(); ++i) {
            const char c = entry[i];
            if (c < '0' || c > '9')
                HIDA_FATAL("HIDA_SERVICE_TENANT_WEIGHTS entry '", entry,
                           "' has a non-numeric weight");
            weight = weight * 10 + static_cast<uint64_t>(c - '0');
        }
        if (weight == 0)
            HIDA_FATAL("HIDA_SERVICE_TENANT_WEIGHTS entry '", entry,
                       "' has weight 0 (must be >= 1)");
        weights[entry.substr(0, eq)] = weight;
    }
    return weights;
}

} // namespace

const char*
requestStatusName(RequestStatus status)
{
    switch (status) {
      case RequestStatus::kCompleted:
        return "completed";
      case RequestStatus::kPartial:
        return "partial";
      case RequestStatus::kShed:
        return "shed";
      case RequestStatus::kRejected:
        return "rejected";
      case RequestStatus::kFailed:
        return "failed";
    }
    return "unknown";
}

ServiceOptions
ServiceOptions::fromEnv()
{
    ServiceOptions options;
    options.concurrency =
        static_cast<unsigned>(envUint("HIDA_SERVICE_CONCURRENCY", 0));
    options.sweepThreads = static_cast<unsigned>(
        envUint("HIDA_SERVICE_WORKERS", dseThreadCount()));
    options.maxQueueDepth = envUint("HIDA_SERVICE_QUEUE_DEPTH", 64);
    options.maxRetries = envUint("HIDA_SERVICE_RETRIES", 2);
    if (const char* weights = std::getenv("HIDA_SERVICE_TENANT_WEIGHTS"))
        options.tenantWeights = parseTenantWeights(weights);
    if (const char* store = std::getenv("HIDA_QOR_STORE"))
        options.storePath = store;
    options.schedule = sweepScheduleFromEnv();
    return options;
}

DseService::DseService(ServiceOptions options) : options_(std::move(options))
{
    // One SIGINT/SIGTERM (shutdown.h) cancels every request-observing
    // loop of this service through the chain.
    cancel_.chain(&processShutdownToken());
    if (options_.concurrency == 0)
        options_.concurrency = std::min(4u, dseHardwareConcurrency());
    if (options_.concurrency == 0)
        options_.concurrency = 1;
    for (const auto& [tenant, weight] : options_.tenantWeights)
        queue_.setWeight(tenant, weight);
    if (auto diag =
            store_.open(options_.storePath, serviceStoreTag(),
                        sizeof(ServicePoint)))
        emitDiagnostic(*diag);  // degraded to misses, never an error
    executors_.reserve(options_.concurrency);
    for (unsigned lane = 0; lane < options_.concurrency; ++lane)
        executors_.emplace_back([this, lane] { executorMain(lane); });
    housekeeper_ = std::thread([this] { housekeepingMain(); });
}

DseService::~DseService() { shutdown(); }

uint64_t
DseService::submit(ServiceRequest request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t id = nextId_++;
    ++stats_.submitted;
    outstanding_[id] = 1;

    auto answerLocked = [&](RequestStatus status, ErrorCode code,
                            std::string message) {
        ServiceResponse response;
        response.id = id;
        response.status = status;
        response.diag =
            Diagnostic(code, std::move(message), "service admission");
        respondLocked(std::move(response));
        return id;
    };

    if (shuttingDown_)
        return answerLocked(RequestStatus::kRejected, ErrorCode::kShutdown,
                            "service shutting down; request not run");
    // Tenant-input validation: malformed requests are answered, never
    // fataled — the process serves other tenants too.
    if (!knownServiceModel(request.model))
        return answerLocked(RequestStatus::kRejected,
                            ErrorCode::kInvalidRequest,
                            strCat("unknown model '", request.model, "'"));
    if (request.grid.numAxes() == 0)
        return answerLocked(RequestStatus::kRejected,
                            ErrorCode::kInvalidRequest,
                            "request grid has no axes");
    if (request.batch <= 0)
        return answerLocked(RequestStatus::kRejected,
                            ErrorCode::kInvalidRequest,
                            strCat("invalid batch ", request.batch));
    if (request.deadlineSeconds < 0.0)
        return answerLocked(RequestStatus::kRejected,
                            ErrorCode::kInvalidRequest,
                            "negative deadline");

    // Admission control on queued (not yet started) requests: shed at
    // the hard depth bound; optionally degrade (sampled strategy, 1/8
    // budget) from the soft bound up, so an overload burst answers
    // fast-and-cheap instead of rejecting.
    if (options_.maxQueueDepth > 0 && queue_.size() >= options_.maxQueueDepth)
        return answerLocked(
            RequestStatus::kShed, ErrorCode::kOverloaded,
            strCat("queue depth ", queue_.size(), " at bound ",
                   options_.maxQueueDepth, "; request shed"));
    Pending pending;
    pending.id = id;
    if (options_.degradeQueueDepth > 0 &&
        queue_.size() >= options_.degradeQueueDepth) {
        const size_t budget =
            request.strategy.budget != 0
                ? request.strategy.budget
                : std::max<size_t>(1, request.grid.size() / 10);
        request.strategy.kind = StrategyKind::kRandom;
        request.strategy.budget = std::max<size_t>(1, budget / 8);
        pending.degraded = true;
    }
    pending.request = std::move(request);
    pending.enqueued = std::chrono::steady_clock::now();
    const std::string tenant = pending.request.tenant;
    queue_.push(tenant, std::move(pending));
    queueCv_.notify_one();
    return id;
}

ServiceResponse
DseService::wait(uint64_t id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    HIDA_ASSERT(responses_.count(id) != 0 || outstanding_.count(id) != 0,
                "wait() on unknown or already-consumed request id ", id);
    responseCv_.wait(lock, [&] { return responses_.count(id) != 0; });
    auto it = responses_.find(id);
    ServiceResponse response = std::move(it->second);
    responses_.erase(it);
    return response;
}

void
DseService::beginShutdown()
{
    cancel_.cancel();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shuttingDown_ = true;
        drainQueuedLocked();
    }
    queueCv_.notify_all();
}

void
DseService::shutdown()
{
    beginShutdown();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    queueCv_.notify_all();
    houseCv_.notify_all();
    for (std::thread& executor : executors_)
        if (executor.joinable())
            executor.join();
    if (housekeeper_.joinable())
        housekeeper_.join();
    store_.flush();
}

ServiceStats
DseService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

size_t
DseService::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void
DseService::backoffWait(size_t attempt, Deadline deadline) const
{
    if (options_.retryBackoffMs <= 0.0)
        return;
    // Slices, not one sleep: a signal handler cannot wake a sleeper, so
    // shutdown is noticed through the chained token on the next slice.
    constexpr Seconds kSlice(0.05);
    const Seconds wait(backoffMs(options_.retryBackoffMs, attempt) / 1e3);
    const Deadline until =
        std::min(deadline, Deadline(std::chrono::steady_clock::now()) + wait);
    while (!cancel_.cancelled()) {
        const Deadline tick = std::chrono::steady_clock::now();
        if (tick >= until)
            return;
        std::this_thread::sleep_for(std::min(until - tick, kSlice));
    }
}

void
DseService::respond(ServiceResponse response)
{
    std::lock_guard<std::mutex> lock(mutex_);
    respondLocked(std::move(response));
}

void
DseService::respondLocked(ServiceResponse response)
{
    // The totality invariant: exactly one terminal response per
    // submitted id. A double answer is a service bug, not tenant input.
    auto it = outstanding_.find(response.id);
    HIDA_ASSERT(it != outstanding_.end(), "request ", response.id,
                " answered twice (or never submitted)");
    outstanding_.erase(it);
    ++stats_.answered;
    switch (response.status) {
      case RequestStatus::kCompleted:
        ++stats_.completed;
        break;
      case RequestStatus::kPartial:
        ++stats_.partial;
        break;
      case RequestStatus::kShed:
        ++stats_.shed;
        break;
      case RequestStatus::kRejected:
        ++stats_.rejected;
        break;
      case RequestStatus::kFailed:
        ++stats_.failed;
        break;
    }
    if (response.degraded)
        ++stats_.degraded;
    stats_.pointRetries += response.pointRetries;
    stats_.requestRetries += response.requestRetries;
    responses_.emplace(response.id, std::move(response));
    responseCv_.notify_all();
}

void
DseService::drainQueuedLocked()
{
    Pending pending;
    while (queue_.pop(&pending)) {
        ServiceResponse response;
        response.id = pending.id;
        response.degraded = pending.degraded;
        response.status = RequestStatus::kRejected;
        response.diag = Diagnostic(ErrorCode::kShutdown,
                                   "service shutting down; request not run",
                                   "service");
        response.queueSeconds = secondsSince(pending.enqueued);
        respondLocked(std::move(response));
    }
}

void
DseService::executorMain(unsigned lane)
{
    setDiagnosticThreadTag(strCat("svc", lane));
    for (;;) {
        Pending pending;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            // wait_for, not wait: a signal handler cannot notify a
            // condvar, so signal-driven shutdown is noticed on the
            // poll tick through the chained cancel token.
            queueCv_.wait_for(lock, std::chrono::milliseconds(50), [&] {
                return stop_ || shuttingDown_ || !queue_.empty();
            });
            if (cancel_.cancelled())
                shuttingDown_ = true;
            if (shuttingDown_ || stop_) {
                drainQueuedLocked();
                break;
            }
            if (!queue_.pop(&pending))
                continue;
            ++inFlight_;
            stats_.maxInFlight = std::max(stats_.maxInFlight, inFlight_);
        }
        runRequest(std::move(pending));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
        }
    }
    setDiagnosticThreadTag("");
}

void
DseService::housekeepingMain()
{
    setDiagnosticThreadTag("svchk");
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        houseCv_.wait_for(lock, std::chrono::milliseconds(50),
                          [&] { return stop_; });
        if (stop_)
            break;
        if (store_.needsFlush()) {
            // Snapshot I/O outside the scheduler lock: submits and
            // executors proceed while records hit disk.
            lock.unlock();
            store_.maybeFlush();
            lock.lock();
        }
    }
    lock.unlock();
    setDiagnosticThreadTag("");
}

DseService::Session&
DseService::sessionFor(const ServiceRequest& request)
{
    Session* session = nullptr;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        std::unique_ptr<Session>& slot = sessions_[sessionKey(request)];
        if (!slot)
            slot = std::make_unique<Session>();
        session = slot.get();
    }
    // The expensive artifact: build + lower the prototype once per key,
    // outside the map lock so other keys build in parallel. The verdict
    // is cached with it: verifySweepPrototype always rolls under
    // kFaultSetupKey, so a rebuild could only repeat it.
    std::call_once(session->built, [&] {
        session->batch = request.batch;
        session->modelHash = serviceModelHash(request);
        OwnedModule module = request.model == "lenet"
                                 ? buildLeNet(request.batch)
                                 : buildDnnModel(request.model);
        FlowOptions options =
            optionsFor(request.dataflow ? Flow::kHida : Flow::kVitis);
        options.enableTiling = false;
        options.enableParallelization = false;
        compile(module.get(), options, options_.device);
        // A rejected prototype is served as kFailed, never an abort.
        session->buildDiag = verifySweepPrototype(module.get());
        session->prototype = std::move(module);
        session->partitionOptions = options;
        session->partitionOptions.enableParallelization = true;
    });
    return *session;
}

std::shared_ptr<CloneSweepWorker>
DseService::claimWorker(Session& session)
{
    {
        std::lock_guard<std::mutex> lock(session.mutex);
        if (!session.idle.empty()) {
            std::shared_ptr<CloneSweepWorker> worker =
                std::move(session.idle.back());
            session.idle.pop_back();
            return worker;
        }
    }
    return std::make_shared<CloneSweepWorker>(
        session.prototype.get(),
        createArrayPartitionPass(session.partitionOptions),
        options_.device);
}

void
DseService::releaseWorker(Session& session,
                          std::shared_ptr<CloneSweepWorker> worker)
{
    std::lock_guard<std::mutex> lock(session.mutex);
    session.idle.push_back(std::move(worker));
}

Result<ServicePoint>
DseService::evaluatePoint(Session& session, CloneSweepWorker& worker,
                          const DesignPointGrid& grid, size_t index,
                          const std::vector<int64_t>& values)
{
    ServicePoint point;
    // Process-independent key: any process (or tenant) that evaluated
    // this exact (prototype, directive assignment) already paid for it.
    const uint64_t key =
        hashCombine(session.modelHash, grid.pointFingerprint(index));
    if (store_.lookup(key, &point))
        return point;
    Result<DesignQor> qor = worker.evaluateChecked(grid, values);
    if (!qor.ok())
        return qor.takeDiag();
    point.util = qor.value().res.utilization(options_.device);
    point.throughput = qor.value().throughput(options_.device) *
                       static_cast<double>(session.batch);
    store_.insert(key, &point);
    return point;
}

void
DseService::runRequest(Pending pending)
{
    // Request-scoped tag via the RAII scope: this thread is reused by
    // the next request, so a bare set would leak the tag across tenants
    // (pinned by tests/diagnostics_test.cc).
    DiagnosticTagScope tag(strCat("req", pending.id));
    const auto start = std::chrono::steady_clock::now();
    ServiceResponse response;
    response.id = pending.id;
    response.degraded = pending.degraded;
    response.queueSeconds = secondsSince(pending.enqueued);

    // Age-based shedding at dispatch: a request that already waited
    // past the bound would only add to the backlog it suffered from.
    if (options_.maxQueueAgeSeconds > 0.0 &&
        response.queueSeconds > options_.maxQueueAgeSeconds) {
        response.status = RequestStatus::kShed;
        response.diag = Diagnostic(
            ErrorCode::kOverloaded,
            strCat("request waited ", response.queueSeconds, "s (bound ",
                   options_.maxQueueAgeSeconds, "s); request shed"),
            "service");
        respond(std::move(response));
        return;
    }

    // Queue wait and retry backoff count against the tenant's deadline.
    const bool has_deadline = pending.request.deadlineSeconds > 0.0;
    Deadline deadline = Deadline::max();
    if (has_deadline)
        deadline = Deadline(pending.enqueued) +
                   Seconds(pending.request.deadlineSeconds);
    double remaining = 0.0;

    // Request-level fault site, with the same bounded deterministic
    // retry discipline as failed points: attempt k re-rolls under key
    // hash(faultKey, k), so the schedule is identical at any
    // concurrency. Every attempt starts with the deadline check: a
    // request that waited its deadline out — queued, or backing off on
    // this lane — is answered now, not after a futile sweep.
    const uint64_t fault_key =
        pending.request.faultKey != 0 ? pending.request.faultKey : pending.id;
    for (size_t attempt = 0;; ++attempt) {
        if (has_deadline) {
            remaining = pending.request.deadlineSeconds -
                        secondsSince(pending.enqueued);
            if (remaining <= 0.0) {
                response.status = RequestStatus::kPartial;
                response.diag = Diagnostic(
                    ErrorCode::kDeadlineExceeded,
                    attempt == 0 ? "deadline exhausted while queued"
                                 : "deadline exhausted during retry backoff",
                    "service");
                respond(std::move(response));
                return;
            }
        }
        FaultScope scope(attempt == 0
                             ? fault_key
                             : hashCombine(hashMix(fault_key), attempt));
        auto injected = maybeInjectFault(
            FaultSite::kService, strCat("request #", pending.id));
        if (!injected)
            break;
        if (attempt >= options_.maxRetries) {
            response.status = RequestStatus::kFailed;
            response.diag = std::move(*injected);
            respond(std::move(response));
            return;
        }
        ++response.requestRetries;
        // Under shutdown this returns at once, so the remaining schedule
        // runs without the waits (decisions never depend on them).
        backoffWait(attempt + 1, deadline);
    }

    Session& session = sessionFor(pending.request);
    if (session.buildDiag) {
        response.status = RequestStatus::kFailed;
        response.diag = *session.buildDiag;
        respond(std::move(response));
        return;
    }

    const DesignPointGrid& grid = pending.request.grid;
    SweepLimits limits;
    limits.cancel = &cancel_;
    if (has_deadline)
        limits.deadlineSeconds = remaining;

    const QorStore::Stats store_before = store_.stats();
    // The clones this request's sweep workers claimed (factories run on
    // the pool's threads), handed back to the key's pool below.
    std::mutex claimed_mutex;
    std::vector<std::shared_ptr<CloneSweepWorker>> claimed;
    std::function<ResilientWorker<ServicePoint>()> factory =
        [this, &session, &grid, &claimed_mutex, &claimed]() {
            std::shared_ptr<CloneSweepWorker> w = claimWorker(session);
            {
                std::lock_guard<std::mutex> lock(claimed_mutex);
                claimed.push_back(w);
            }
            ResilientWorker<ServicePoint> worker;
            worker.evaluate =
                [this, &session, &grid, w](
                    size_t index,
                    const std::vector<int64_t>& values)
                -> Result<ServicePoint> {
                return evaluatePoint(session, *w, grid, index, values);
            };
            worker.recover = [w]() { w->rebuild(); };
            worker.cacheStats = [w]() { return w->estimator.cacheStats(); };
            return worker;
        };

    std::unique_ptr<SearchStrategy> strategy =
        makeStrategy(grid, pending.request.strategy);
    StrategyOutcome<ServicePoint> outcome =
        runStrategySweep<ServicePoint>(
            grid, *strategy, factory,
            [](size_t index, const ServicePoint& point) {
                return ParetoSample{index, point.util, point.throughput};
            },
            options_.sweepThreads, limits);
    // The sweep has joined its workers, so the clones are idle again. A
    // worker killed by an escaped exception never ran its recover hook
    // and may have left its clone half-applied; rather than tell which,
    // such a sweep returns none of its clones.
    if (outcome.stats.workerFailures.empty())
        for (std::shared_ptr<CloneSweepWorker>& w : claimed)
            releaseWorker(session, std::move(w));

    response.results = std::move(outcome.results);
    response.completed = std::move(outcome.completed);
    response.failures = std::move(outcome.failures);
    response.workerFailures = std::move(outcome.stats.workerFailures);
    // The sweep counts every successful evaluate() — including ones the
    // store answered. "evaluated" reports genuinely recomputed points,
    // so warm-started requests read as (evaluated 0, storeHits N).
    const size_t sweep_hits = store_.stats().hits - store_before.hits;
    response.evaluated = outcome.stats.evaluated > sweep_hits
                             ? outcome.stats.evaluated - sweep_hits
                             : 0;

    // Bounded deterministic retry of transient point failures, serial
    // and in grid order on this thread: attempt k re-rolls point i's
    // fault dice under key hash(i, k) — never under timing or thread
    // placement, so retried runs stay bit-identical at any thread count.
    if (!outcome.stats.stopped && !response.failures.empty() &&
        options_.maxRetries > 0) {
        std::shared_ptr<CloneSweepWorker> retry_worker;
        std::vector<int64_t> values;
        for (size_t attempt = 1; attempt <= options_.maxRetries;
             ++attempt) {
            bool any_transient = false;
            for (const PointFailure& failure : response.failures)
                if (transientPointFailure(failure.diag.code))
                    any_transient = true;
            if (!any_transient)
                break;
            // Checked after the wait: a backoff cut short by shutdown or
            // the deadline (or one that started past them, which returns
            // at once) is never followed by a retry.
            backoffWait(attempt, deadline);
            if (cancel_.cancelled() ||
                Deadline(std::chrono::steady_clock::now()) >= deadline)
                break;
            std::vector<PointFailure> still;
            for (PointFailure& failure : response.failures) {
                if (!transientPointFailure(failure.diag.code) ||
                    cancel_.cancelled()) {
                    still.push_back(std::move(failure));
                    continue;
                }
                if (!retry_worker)
                    retry_worker = claimWorker(session);
                grid.decode(failure.index, values);
                FaultScope scope(
                    hashCombine(hashMix(failure.index), attempt));
                ++response.pointRetries;
                Result<ServicePoint> result =
                    guardedEvaluate<ServicePoint>(failure.index, "retry", [&] {
                        return evaluatePoint(session, *retry_worker, grid,
                                             failure.index, values);
                    });
                if (result.ok()) {
                    response.results[failure.index] = result.value();
                    response.completed[failure.index] = 1;
                    ++response.evaluated;
                } else {
                    failure.diag = result.takeDiag();
                    retry_worker->rebuild();
                    still.push_back(std::move(failure));
                }
            }
            response.failures = std::move(still);
        }
        if (retry_worker)
            releaseWorker(session, std::move(retry_worker));
    }

    response.storeHits = store_.stats().hits - store_before.hits;
    response.runSeconds = secondsSince(start);
    if (outcome.stats.stopped && outcome.stats.stopReason) {
        response.status = RequestStatus::kPartial;
        // The only canceller of this token chain is shutdown (service
        // or process signal) — report it as such, not as a bare cancel.
        if (outcome.stats.stopReason->code == ErrorCode::kCancelled &&
            cancel_.cancelled())
            response.diag = Diagnostic(
                ErrorCode::kShutdown,
                "service shutting down; partial results", "service");
        else
            response.diag = *outcome.stats.stopReason;
    } else {
        response.status = RequestStatus::kCompleted;
    }
    respond(std::move(response));
}

} // namespace hida
