/**
 * @file
 * service_mix: a closed loop of clients, each waiting for its response
 * before sending the next request, against one DseService. The traffic
 * is a deterministic 3-tenant mix keyed on (seed, sequence number),
 * shaped like the fig1 / fig10 / fig11 requests of bench_service_traffic:
 * an exhaustive 32-point grid, a random search and an evolve search over
 * the LeNet space at batches {1, 5, 10} x dataflow on/off.
 *
 * Op: one request. A block ("epoch") is the first kEpochRequests requests
 * of the sequence against a fresh service and a fresh QoR store file, so
 * every epoch on every commit serves the same requests with the same
 * store history — a faster commit is never handed more store hits. Each
 * epoch's service first lowers its sessions untimed (warmSessions).
 * rate_1t: 1 client, 1 executor lane, 1 sweep worker. rate: kLoadThreads
 * clients against kLoadThreads lanes x kLoadThreads sweep workers (the
 * shape ServiceOptions::fromEnv() gives on a 4-core host with no HIDA_*
 * set, pinned here). Both are medians of per-epoch request rates from
 * alternating epochs; latency samples are per request, in the rate shape.
 *
 * Output checks: every request must complete undegraded with no failed
 * points; its response digest must be identical in every epoch and
 * shape; and a seeded sample of response points must equal a direct
 * CloneSweepWorker evaluation of the same point.
 */

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "lenet_space.h"
#include "src/service/service.h"
#include "src/support/utils.h"
#include "src/transforms/passes.h"

namespace perfbench {

using namespace hida;

namespace {

constexpr size_t kEpochRequests = 3000;
/** About one request in kSampleStride has response points checked. */
constexpr uint64_t kSampleStride = 64;
constexpr size_t kPointsPerSample = 2;

const int64_t kBatches[3] = {1, 5, 10};

/** Request @p seq of the mix for @p seed. */
ServiceRequest
mixRequest(uint64_t seed, size_t seq)
{
    ServiceRequest request;
    request.model = "lenet";
    request.batch = kBatches[(seq / 3) % 3];
    request.dataflow = (seq / 9) % 2 == 0;
    request.tenant = "tenant" + std::to_string(seq % 3);
    request.faultKey = seq + 1;
    const uint64_t strategy_seed = hashCombine(seed, seq) >> 16;
    switch (seq % 3) {
      case 0:  // fig1-shaped: exhaustive over the 32-point slice
        request.grid = smallFactorGrid();
        request.strategy.kind = StrategyKind::kExhaustive;
        break;
      case 1:  // fig10-shaped: random sample of the full space
        request.grid = fullFactorGrid();
        request.strategy.kind = StrategyKind::kRandom;
        request.strategy.budget = 24;
        request.strategy.seed = strategy_seed;
        break;
      default:  // fig11-shaped: Pareto-guided evolve search
        request.grid = fullFactorGrid();
        request.strategy.kind = StrategyKind::kEvolve;
        request.strategy.budget = 24;
        request.strategy.seed = strategy_seed;
        request.strategy.costLimit = 1.05;
        break;
    }
    return request;
}

/** Execution shape of one epoch. */
struct Shape {
    unsigned clients = 1;
    unsigned lanes = 1;
    unsigned workers = 1;
};

/** Every ServiceOptions field, set here rather than from the environment. */
ServiceOptions
optionsFor(const Shape& shape, const std::string& store_path)
{
    ServiceOptions options;
    options.concurrency = shape.lanes;
    options.sweepThreads = shape.workers;
    options.tenantWeights.clear();  // every tenant weighs 1
    options.maxQueueDepth = 64;
    options.degradeQueueDepth = 0;
    options.maxQueueAgeSeconds = 0.0;
    options.maxRetries = 2;
    options.retryBackoffMs = 0.0;
    options.storePath = store_path;
    options.schedule = SweepSchedule();  // Gray order, stealing
    options.device = TargetDevice::pynqZ2();
    return options;
}

/** One response point kept for the direct-evaluation oracle. */
struct PointCheck {
    size_t seq = 0;
    size_t index = 0;
    ServicePoint point;
};

/** Per-request record of one epoch. */
struct Sample {
    double latency = 0.0;
    double queue = 0.0;
    double run = 0.0;
    uint64_t digest = 0;
    bool clean = false;  ///< Completed, undegraded, nothing failed.
    size_t evaluated = 0;
};

struct Epoch {
    double rate = 0.0;
    std::vector<Sample> samples;
    std::vector<PointCheck> pointChecks;
    ServiceStats stats;
    QorStore::Stats store;
    double storeBytes = 0.0;
};

/** Timing-independent digest of one response (status, retries, and the
 * completed points with their exact result bits). */
uint64_t
responseDigest(const ServiceResponse& response)
{
    uint64_t h = hashMix(static_cast<uint64_t>(response.status));
    h = hashCombine(h, response.degraded ? 1 : 0);
    h = hashCombine(h, response.requestRetries);
    for (size_t i = 0; i < response.completed.size(); ++i) {
        if (!response.completed[i])
            continue;
        h = hashCombine(h, i);
        h = hashCombine(h, bitsOf(response.results[i].util));
        h = hashCombine(h, bitsOf(response.results[i].throughput));
    }
    for (const PointFailure& failure : response.failures)
        h = hashCombine(h, failure.index);
    return h;
}

/** Direct evaluation of the LeNet space, one warm worker per prototype. */
struct DirectEvaluator {
    struct Entry {
        Prototype proto;
        std::unique_ptr<CloneSweepWorker> worker;
    };
    TargetDevice device = TargetDevice::pynqZ2();
    std::map<std::pair<int64_t, bool>, Entry> entries;

    bool
    matches(const ServiceRequest& request, const PointCheck& check)
    {
        Entry& entry = entries[{request.batch, request.dataflow}];
        if (!entry.worker) {
            if (!lowerPrototype(request.dataflow, request.batch, device,
                                &entry.proto))
                return false;
            entry.worker = std::make_unique<CloneSweepWorker>(
                entry.proto.module.get(),
                createArrayPartitionPass(entry.proto.partitionOptions),
                device);
        }
        std::vector<int64_t> values;
        request.grid.decode(check.index, values);
        Result<DesignQor> qor =
            entry.worker->evaluateChecked(request.grid, values);
        if (!qor.ok()) {
            entry.worker->rebuild();
            return false;
        }
        Point direct = pointOf(qor.value(), device, request.batch);
        return bitsOf(direct.util) == bitsOf(check.point.util) &&
               bitsOf(direct.throughput) == bitsOf(check.point.throughput);
    }
};

struct Mix {
    Mix(const RunConfig& c, Report& r) : config(c), report(r) {}

    const RunConfig& config;
    Report& report;
    size_t epochs = 0;
    /** Digest per sequence number from the first epoch that served it. */
    std::vector<uint64_t> reference;
    std::vector<uint8_t> haveReference;
    DirectEvaluator direct;
    size_t shed = 0, retries = 0, requests = 0;

    std::string
    storePath()
    {
        return config.scratch + "/store_" + std::to_string(epochs++) + ".qor";
    }

    /**
     * Untimed warm-up of a fresh service: for each of the six session keys,
     * shape.lanes concurrent 32-point exhaustive requests (mix requests 0,
     * 3, ..., 15), so every session instance the lanes can lease is
     * lowered before timing, as in a long-running service. The store then
     * holds exactly the 32-point grid of every key, whatever the timing.
     */
    void
    warmSessions(DseService& service, const Shape& shape)
    {
        for (size_t seq = 0; seq < 18; seq += 3) {
            std::vector<uint64_t> ids;
            for (unsigned lane = 0; lane < shape.lanes; ++lane)
                ids.push_back(service.submit(mixRequest(config.seed, seq)));
            for (uint64_t id : ids)
                if (service.wait(id).status != RequestStatus::kCompleted)
                    report.problem("session warm-up request did not complete");
        }
    }

    /** Serve the first @p count requests of the mix with @p shape. */
    Epoch
    epoch(const Shape& shape, size_t count, bool traced)
    {
        // A one-client epoch runs on one CPU: the service's threads start
        // here and inherit the pin, so no hand-off wakes another vCPU.
        std::optional<CpuPin> pin;
        if (shape.clients == 1)
            pin.emplace();
        const std::string path = storePath();
        std::remove(path.c_str());
        Epoch out;
        out.samples.resize(count);
        std::vector<std::vector<PointCheck>> checks(shape.clients);
        DseService service(optionsFor(shape, path));
        warmSessions(service, shape);
        const QorStore::Stats warm = service.storeStats();
        Tracer::get().enable(traced);
        auto client = [&](unsigned c) {
            for (size_t seq = c; seq < count; seq += shape.clients) {
                const uint64_t op = traced ? Tracer::get().newOp() : 0;
                SpanScope request_span("service.request", op);
                const Clock::time_point start = Clock::now();
                uint64_t id = 0;
                {
                    SpanScope span("service.submit", op);
                    id = service.submit(mixRequest(config.seed, seq));
                }
                std::optional<ServiceResponse> response;
                {
                    SpanScope span("service.wait", op);
                    response.emplace(service.wait(id));
                }
                const Clock::time_point end = Clock::now();
                const Clock::time_point dispatched =
                    plusSeconds(start, response->queueSeconds);
                Tracer::get().record("service.queue", op, start, dispatched);
                Tracer::get().record(
                    "service.run", op, dispatched,
                    plusSeconds(dispatched, response->runSeconds));

                Sample& sample = out.samples[seq];
                sample.latency = secondsBetween(start, end);
                sample.queue = response->queueSeconds;
                sample.run = response->runSeconds;
                sample.digest = responseDigest(*response);
                sample.evaluated = response->evaluated;
                sample.clean =
                    response->status == RequestStatus::kCompleted &&
                    !response->degraded && response->failures.empty() &&
                    response->workerFailures.empty();
                const uint64_t pick = hashCombine(
                    hashCombine(config.seed, epochs), seq);
                if (pick % kSampleStride != 0)
                    continue;
                std::vector<size_t> done;
                for (size_t i = 0; i < response->completed.size(); ++i)
                    if (response->completed[i])
                        done.push_back(i);
                for (size_t k = 0; k < kPointsPerSample && !done.empty();
                     ++k) {
                    size_t i = done[hashCombine(pick, k) % done.size()];
                    checks[c].push_back({seq, i, response->results[i]});
                }
            }
        };
        const Clock::time_point start = Clock::now();
        std::vector<std::thread> fleet;
        for (unsigned c = 0; c < shape.clients; ++c)
            fleet.emplace_back(client, c);
        for (std::thread& t : fleet)
            t.join();
        out.rate = static_cast<double>(count) /
                   secondsBetween(start, Clock::now());
        Tracer::get().enable(false);
        service.shutdown();
        out.stats = service.stats();
        out.store = service.storeStats();
        out.store.hits -= warm.hits;
        out.store.misses -= warm.misses;
        struct stat st;
        if (::stat(path.c_str(), &st) == 0)
            out.storeBytes = static_cast<double>(st.st_size);
        std::remove(path.c_str());
        for (auto& list : checks)
            out.pointChecks.insert(out.pointChecks.end(), list.begin(),
                                   list.end());
        verify(out);
        return out;
    }

    /** Count every request of @p e as an op, ok when it is clean, its
     * digest matches the one first seen for its sequence number, and
     * its sampled points match direct evaluation. */
    void
    verify(const Epoch& e)
    {
        const size_t count = e.samples.size();
        if (reference.size() < count) {
            reference.resize(count, 0);
            haveReference.resize(count, 0);
        }
        std::vector<uint8_t> ok(count, 1);
        for (const PointCheck& check : e.pointChecks)
            if (!direct.matches(mixRequest(config.seed, check.seq), check))
                ok[check.seq] = 0;
        for (size_t seq = 0; seq < count; ++seq) {
            const Sample& s = e.samples[seq];
            if (!haveReference[seq]) {
                reference[seq] = s.digest;
                haveReference[seq] = 1;
            }
            report.countOp(ok[seq] && s.clean &&
                           reference[seq] == s.digest);
        }
        shed += e.stats.shed;
        retries += e.stats.pointRetries + e.stats.requestRetries;
        requests += count;
        if (e.stats.shed != 0 || e.stats.pointRetries != 0 ||
            e.stats.requestRetries != 0)
            report.problem("clean run shed or retried requests");
        if (e.stats.answered != e.stats.submitted)
            report.problem("service answered fewer requests than submitted");
    }
};

} // namespace

void
runServiceMix(const RunConfig& config, Report& report)
{
    Mix mix{config, report};
    const Shape one{1, 1, 1};
    const Shape parallel{kLoadThreads, kLoadThreads, kLoadThreads};
    EndToEnd e2e;

    // Set-up: build the service and a fresh store, then the session
    // warm-up every block also starts with (24 session instances lowered).
    auto set_up = [&](Clock::time_point start) {
        const std::string path = mix.storePath();
        std::remove(path.c_str());
        {
            DseService service(optionsFor(parallel, path));
            mix.warmSessions(service, parallel);
            service.shutdown();
        }
        std::remove(path.c_str());
        return secondsBetween(start, Clock::now());
    };
    e2e.setups.push_back(measure([&] { return set_up(processStart()); }));

    for (const Clock::time_point ramp = plusSeconds(Clock::now(), kRampSeconds);
         Clock::now() < ramp;)
        mix.epoch(parallel, kEpochRequests, false);
    const Clock::time_point deadline =
        plusSeconds(Clock::now(), config.seconds);
    if (!config.trace) {
        while (Clock::now() < deadline) {
            e2e.blocks1t.push_back(measure([&] {
                return mix.epoch(one, kEpochRequests, false).rate;
            }));
            Epoch e;
            e2e.blocks.push_back(measure([&] {
                e = mix.epoch(parallel, kEpochRequests, false);
                return e.rate;
            }));
            e2e.setups.push_back(measure([&] { return set_up(Clock::now()); }));
            for (size_t seq = 0; seq < e.samples.size(); ++seq)
                e2e.latencies.push_back(
                    {e2e.blocks.size() - 1, seq, e.samples[seq].latency});
        }
        reportEndToEnd(e2e, report);
        return;
    }

    // Traced run: untraced 1-client epochs, and in the first
    // kTracedRounds rounds traced 1-client epochs (overhead, run time, the
    // deterministic store counters) and traced parallel epochs (queue
    // wait, hand-off overhead, in-flight peak).
    std::vector<double> plain, traced, run, overhead;
    std::vector<LatencySample> queue;
    Epoch first;
    bool have_first = false;
    size_t max_in_flight = 0;
    for (uint64_t round = 0; Clock::now() < deadline; ++round) {
        plain.push_back(mix.epoch(one, kEpochRequests, false).rate);
        if (round >= kTracedRounds)
            continue;
        Epoch e1 = mix.epoch(one, kEpochRequests, true);
        traced.push_back(e1.rate);
        for (const Sample& s : e1.samples)
            run.push_back(s.run);
        if (!have_first) {
            first = std::move(e1);
            have_first = true;
        }
        Epoch e4 = mix.epoch(parallel, kEpochRequests, true);
        max_in_flight = std::max(max_in_flight, e4.stats.maxInFlight);
        for (size_t seq = 0; seq < e4.samples.size(); ++seq) {
            const Sample& s = e4.samples[seq];
            queue.push_back({round, seq, s.queue});
            overhead.push_back(s.latency - s.queue - s.run);
        }
    }
    const double lookups =
        static_cast<double>(first.store.hits + first.store.misses);
    double evaluated = 0.0;
    for (const Sample& s : first.samples)
        evaluated += static_cast<double>(s.evaluated);

    std::map<std::string, double> values;
    std::vector<double> queue_seconds;
    for (const LatencySample& s : queue)
        queue_seconds.push_back(s.seconds);
    values["service.queue_wait_p50_s"] = median(queue_seconds);
    values["service.queue_wait_tail_s"] = windowTailOf(queue).value;
    values["service.run_p50_s"] = median(run);
    values["service.overhead_p50_s"] = median(overhead);
    values["dse.store_hit_frac"] =
        lookups == 0.0 ? 0.0
                       : static_cast<double>(first.store.hits) / lookups;
    values["dse.store_lookups"] = lookups;
    values["dse.points_evaluated"] = evaluated;
    values["dse.store_bytes"] = first.storeBytes;
    values["service.max_in_flight"] = static_cast<double>(max_in_flight);
    values["service.shed_frac"] =
        static_cast<double>(mix.shed) / static_cast<double>(mix.requests);
    values["service.retries"] = static_cast<double>(mix.retries);
    values["trace.overhead_frac"] = tracingOverhead(plain, traced);
    reportPerLayer(values, report);
}

} // namespace perfbench
