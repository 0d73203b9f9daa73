/**
 * @file
 * lenet_sweep: the Figure 1 / Table 1 exhaustive LeNet design space —
 * 10 (dataflow x batch) prototypes x 2,400 points — through
 * runStrategySweep (exhaustive strategy, Gray order, stealing scheduler)
 * with CloneSweepWorker::evaluateChecked workers, exactly as the fig1
 * bench runs it.
 *
 * Op: one 2,400-point prototype sweep. A block is one pass over all ten
 * prototypes in a seeded order; rate_1t and rate are the medians of the
 * per-block point rates at 1 and kLoadThreads workers, measured in
 * alternating blocks. Latency samples are per op, at 1 worker.
 * Every op's results digest must equal the digest pinned for its
 * prototype (a regression reference) at any thread count.
 */

#include <cstdio>
#include <memory>
#include <optional>
#include <set>

#include "bench.h"
#include "lenet_space.h"
#include "references.h"
#include "src/dse/strategy.h"
#include "src/transforms/passes.h"

namespace perfbench {

using namespace hida;

namespace {

const int64_t kBatches[] = {1, 5, 10, 15, 20};

std::string
prototypeKey(const Prototype& proto)
{
    return std::string(proto.dataflow ? "df_b" : "nodf_b") +
           std::to_string(proto.batch);
}

std::vector<Prototype>
lowerAll(const TargetDevice& device, Report& report)
{
    std::vector<Prototype> protos;
    for (bool dataflow : {true, false}) {
        for (int64_t batch : kBatches) {
            protos.emplace_back();
            if (!lowerPrototype(dataflow, batch, device, &protos.back()))
                report.problem("sweep prototype rejected: " +
                               prototypeKey(protos.back()));
        }
    }
    return protos;
}

/** One op: the exhaustive sweep of one prototype. */
struct SweepOp {
    uint64_t digest = 0;
    bool clean = false;  ///< Every point completed, nothing failed.
    QorCacheStats cache;
    double seconds = 0.0;
};

SweepOp
sweepPrototype(const Prototype& proto, const DesignPointGrid& grid,
               const TargetDevice& device, unsigned threads, bool traced,
               uint64_t op)
{
    const int64_t batch = proto.batch;
    std::function<ResilientWorker<Point>()> factory = [&, traced, op]() {
        auto w = std::make_shared<CloneSweepWorker>(
            proto.module.get(), createArrayPartitionPass(proto.partitionOptions),
            device);
        ResilientWorker<Point> worker;
        if (traced) {
            // The three calls of CloneSweepWorker::evaluateChecked, each
            // in its own span.
            worker.evaluate = [w, &grid, &device, batch, op](
                                  size_t, const std::vector<int64_t>& values)
                -> Result<Point> {
                SpanScope point("dse.point", op);
                {
                    SpanScope span("dse.apply", op);
                    if (auto diag =
                            applyPointChecked(w->module.get(), grid, values))
                        return *diag;
                }
                {
                    SpanScope span("transforms.partition", op);
                    if (auto diag = w->perPointPass->runChecked(w->module.get()))
                        return *diag;
                }
                std::optional<Result<DesignQor>> qor;
                {
                    SpanScope span("estimator.estimate", op);
                    qor.emplace(w->estimator.estimateFuncChecked(w->func));
                }
                if (!qor->ok())
                    return qor->takeDiag();
                return pointOf(qor->value(), device, batch);
            };
        } else {
            worker.evaluate = [w, &grid, &device, batch](
                                  size_t, const std::vector<int64_t>& values)
                -> Result<Point> {
                Result<DesignQor> qor = w->evaluateChecked(grid, values);
                if (!qor.ok())
                    return qor.takeDiag();
                return pointOf(qor.value(), device, batch);
            };
        }
        worker.recover = [w]() { w->rebuild(); };
        worker.cacheStats = [w]() { return w->estimator.cacheStats(); };
        return worker;
    };

    StrategyOptions options;  // exhaustive, default Gray order
    std::unique_ptr<SearchStrategy> strategy = makeStrategy(grid, options);
    SweepOp result;
    const Clock::time_point start = Clock::now();
    StrategyOutcome<Point> outcome;
    {
        SpanScope span("dse.sweep", op);
        outcome = runStrategySweep<Point>(
            grid, *strategy, factory,
            [](size_t index, const Point& p) {
                return ParetoSample{index, p.util, p.throughput};
            },
            threads);
    }
    result.seconds = secondsBetween(start, Clock::now());
    result.digest = sweepDigest(outcome.results, outcome.completed);
    result.clean = outcome.failures.empty() &&
                   outcome.stats.workerFailures.empty() &&
                   !outcome.stats.stopped;
    for (uint8_t done : outcome.completed)
        result.clean = result.clean && done != 0;
    result.cache = outcome.stats.cache;
    return result;
}

/** The state shared by every block of one run. */
struct Sweeper {
    Sweeper(const RunConfig& c, Report& r) : config(c), report(r) {}

    const RunConfig& config;
    Report& report;
    TargetDevice device = TargetDevice::pynqZ2();
    DesignPointGrid grid = fullFactorGrid();
    std::vector<Prototype> protos;
    /** Digest seen per prototype key (must agree across thread counts). */
    std::map<std::string, uint64_t> seen;

    /** Check one op's output against the pinned and the earlier digests. */
    bool
    check(const Prototype& proto, const SweepOp& op)
    {
        const std::string key = prototypeKey(proto);
        bool ok = op.clean;
        const uint64_t* pinned = findPinned(kLenetSweepDigests, key);
        if (pinned == nullptr || *pinned != op.digest)
            ok = false;
        auto [it, fresh] = seen.emplace(key, op.digest);
        if (!fresh && it->second != op.digest) {
            report.problem("sweep digest of " + key +
                           " differs between thread counts");
            ok = false;
        }
        return ok;
    }

    /** One block: every prototype once, in a seeded order. Returns the
     * block's point rate; per-op latencies go to @p latencies. */
    double
    block(uint64_t round, unsigned threads, bool traced,
          std::vector<LatencySample>* latencies,
          std::set<uint64_t>* ops,
          QorCacheStats* cache)
    {
        std::optional<CpuPin> pin;
        if (threads == 1)
            pin.emplace();
        Tracer::get().enable(traced);
        const Clock::time_point start = Clock::now();
        for (size_t index : seededOrder(protos.size(), config.seed, round)) {
            const uint64_t op = Tracer::get().newOp();
            SweepOp result =
                sweepPrototype(protos[index], grid, device, threads, traced, op);
            report.countOp(check(protos[index], result));
            if (latencies != nullptr)
                latencies->push_back({round, index, result.seconds});
            if (ops != nullptr)
                ops->insert(op);
            if (cache != nullptr)
                *cache += result.cache;
        }
        const double seconds = secondsBetween(start, Clock::now());
        Tracer::get().enable(false);
        return static_cast<double>(grid.size() * protos.size()) / seconds;
    }
};

} // namespace

/** Print this table's entries for references.cc (--print-references). */
void
printLenetReferences()
{
    Report report;
    const TargetDevice device = TargetDevice::pynqZ2();
    const DesignPointGrid grid = fullFactorGrid();
    for (const Prototype& proto : lowerAll(device, report)) {
        SweepOp op = sweepPrototype(proto, grid, device, 1, false, 0);
        std::printf("    {\"%s\", 0x%016llxULL},%s\n",
                    prototypeKey(proto).c_str(),
                    static_cast<unsigned long long>(op.digest),
                    op.clean ? "" : "  // NOT CLEAN");
    }
}

void
runLenetSweep(const RunConfig& config, Report& report)
{
    Sweeper sweeper{config, report};
    EndToEnd e2e;
    e2e.latencyAt1t = true;

    // Set-up: lower the ten prototypes, then one untimed warm-up op (the
    // first prototype, whatever the seed, so set-up work is the same in
    // every run).
    auto set_up = [&](Clock::time_point start) {
        CpuPin pin;
        sweeper.protos.clear();
        sweeper.protos = lowerAll(sweeper.device, report);
        SweepOp warm = sweepPrototype(sweeper.protos[0], sweeper.grid,
                                      sweeper.device, 1, false, 0);
        if (!sweeper.check(sweeper.protos[0], warm))
            report.problem("warm-up sweep output differs from its reference");
        return secondsBetween(start, Clock::now());
    };
    e2e.setups.push_back(measure([&] { return set_up(processStart()); }));

    for (const Clock::time_point ramp = plusSeconds(Clock::now(), kRampSeconds);
         Clock::now() < ramp;)
        sweeper.block(UINT64_MAX, kLoadThreads, false, nullptr, nullptr,
                      nullptr);
    const Clock::time_point deadline =
        plusSeconds(Clock::now(), config.seconds);
    if (!config.trace) {
        for (uint64_t round = 0; Clock::now() < deadline; ++round) {
            e2e.blocks1t.push_back(measure([&] {
                return sweeper.block(round, 1, false, &e2e.latencies,
                                     nullptr, nullptr);
            }));
            e2e.blocks.push_back(measure([&] {
                return sweeper.block(round, kLoadThreads, false, nullptr,
                                     nullptr, nullptr);
            }));
            e2e.setups.push_back(measure([&] { return set_up(Clock::now()); }));
        }
        reportEndToEnd(e2e, report);
        return;
    }

    // Traced run: untraced 1/2/kLoadThreads-worker blocks for the scaling
    // curve and the tracing overhead, plus traced 1-worker blocks (stage
    // split, estimator counters) and traced kLoadThreads blocks (busy
    // fraction), in the first kTracedRounds rounds.
    std::vector<double> plain1, traced1, plain2, plain4;
    std::set<uint64_t> ops1, ops4;
    QorCacheStats first_pass;
    for (uint64_t round = 0; Clock::now() < deadline; ++round) {
        const bool trace_round = round < kTracedRounds;
        plain1.push_back(sweeper.block(round, 1, false, nullptr, nullptr,
                                       nullptr));
        if (trace_round)
            traced1.push_back(sweeper.block(round, 1, true, nullptr, &ops1,
                                            round == 0 ? &first_pass
                                                       : nullptr));
        plain2.push_back(sweeper.block(round, 2, false, nullptr, nullptr,
                                       nullptr));
        plain4.push_back(sweeper.block(round, kLoadThreads, false, nullptr,
                                       nullptr, nullptr));
        if (trace_round)
            sweeper.block(round, kLoadThreads, true, nullptr, &ops4, nullptr);
    }

    const std::vector<Span> spans = Tracer::get().collect();
    std::map<std::string, double> t1 = secondsByName(spans, &ops1);
    std::map<std::string, double> t4 = secondsByName(spans, &ops4);
    const double points1 = static_cast<double>(
        sweeper.grid.size() * sweeper.protos.size() * traced1.size());
    const double points_pass =
        static_cast<double>(sweeper.grid.size() * sweeper.protos.size());
    const double apply = t1["dse.apply"];
    const double partition = t1["transforms.partition"];
    const double estimate = t1["estimator.estimate"];
    const double lookups =
        static_cast<double>(first_pass.hits + first_pass.misses);

    std::map<std::string, double> values;
    values["dse.apply_s"] = apply / points1;
    values["transforms.partition_s"] = partition / points1;
    values["estimator.estimate_s"] = estimate / points1;
    values["dse.stage_coverage_frac"] =
        (apply + partition + estimate) / t1["dse.sweep"];
    values["estimator.memo_hit_frac"] = first_pass.memoHitRate();
    values["estimator.memo_lookups"] = lookups;
    values["estimator.hash_recomputes_per_point"] =
        static_cast<double>(first_pass.hashRecomputes) / points_pass;
    values["estimator.sim_runs_per_point"] =
        static_cast<double>(first_pass.simRuns) / points_pass;
    values["estimator.schedule_builds"] =
        static_cast<double>(first_pass.scheduleBuilds);
    values["dse.busy_frac"] = t4["dse.point"] /
                              (kLoadThreads * t4["dse.sweep"]);
    values["dse.scaling_2t"] = median(plain2) / median(plain1);
    values["dse.scaling_4t"] = median(plain4) / median(plain1);
    values["trace.overhead_frac"] = tracingOverhead(plain1, traced1);
    if (values["dse.stage_coverage_frac"] < 0.9)
        report.problem("traced stages cover less than 90% of the serial "
                       "sweep time");
    reportPerLayer(values, report);
}

} // namespace perfbench
