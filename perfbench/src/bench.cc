#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>

#include "src/support/utils.h"

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
} // namespace

Clock::time_point
processStart()
{
    return kProcessStart;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Linear interpolation between closest ranks.
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

Tail
tailOf(std::vector<double> v)
{
    static const double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};
    Tail tail;
    tail.samples = v.size();
    if (v.empty())
        return tail;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    tail.value = v.back();
    for (double p : kLadder) {
        // Nearest-rank percentile: index ceil(p/100 * n) - 1.
        size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(n) +
                                          0.999999);
        size_t index = rank == 0 ? 0 : rank - 1;
        size_t beyond = n - 1 - index;
        if (beyond < 10)
            break;
        tail.value = v[index];
        tail.percentile = p;
        tail.beyond = beyond;
    }
    return tail;
}

namespace {

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    return cpus;
}

void
setAllowedCpus(const std::vector<int>& cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

} // namespace

CpuPin::CpuPin() : saved_(allowedCpus())
{
    static std::atomic<size_t> next{0};
    if (!saved_.empty())
        setAllowedCpus({saved_[next++ % saved_.size()]});
}

CpuPin::~CpuPin()
{
    if (!saved_.empty())
        setAllowedCpus(saved_);
}

double
tracingOverhead(const std::vector<double>& plain,
                const std::vector<double>& traced)
{
    std::vector<double> ratios;
    for (size_t i = 0; i < traced.size() && i < plain.size(); ++i)
        ratios.push_back(plain[i] / traced[i]);
    return median(std::move(ratios)) - 1.0;
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t
fnv1a(const std::string& bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
bitsOf(double d)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

std::vector<size_t>
seededOrder(size_t n, uint64_t seed, uint64_t salt)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    // Fisher-Yates keyed on (seed, salt, position): no library RNG, so the
    // order is identical on every platform.
    for (size_t i = n; i > 1; --i) {
        uint64_t r = hida::hashCombine(hida::hashCombine(seed, salt), i);
        std::swap(order[i - 1], order[r % i]);
    }
    return order;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer&
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

uint64_t
Tracer::newOp()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextOp_++;
}

Tracer::Buffer&
Tracer::local()
{
    // The tracer owns every buffer: a worker thread may end before the
    // spans it recorded are collected.
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.push_back(std::make_unique<Buffer>());
        buffer = buffers_.back().get();
        buffer->thread = static_cast<uint32_t>(buffers_.size() - 1);
        buffer->spans.reserve(1 << 16);
    }
    return *buffer;
}

int64_t
Tracer::sinceEpochNs(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

Span&
Tracer::append(Buffer& buffer, const char* name, uint64_t op,
               int64_t start_ns)
{
    Span span;
    span.name = name;
    span.op = op;
    span.thread = buffer.thread;
    span.parent =
        buffer.open.empty() ? 0 : buffer.spans[buffer.open.back()].id;
    span.id = buffer.nextId();
    span.startNs = start_ns;
    buffer.spans.push_back(span);
    return buffer.spans.back();
}

void
Tracer::begin(const char* name, uint64_t op)
{
    Buffer& buffer = local();
    append(buffer, name, op, sinceEpochNs(Clock::now()));
    buffer.open.push_back(buffer.spans.size() - 1);
}

void
Tracer::end()
{
    const int64_t now = sinceEpochNs(Clock::now());
    Buffer& buffer = local();
    buffer.spans[buffer.open.back()].endNs = now;
    buffer.open.pop_back();
}

void
Tracer::record(const char* name, uint64_t op, Clock::time_point start,
               Clock::time_point end)
{
    if (!enabled_)
        return;
    append(local(), name, op, sinceEpochNs(start)).endNs = sinceEpochNs(end);
}

std::vector<Span>
Tracer::collect() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const std::unique_ptr<Buffer>& buffer : buffers_)
        all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    return all;
}

bool
Tracer::write(const std::string& path) const
{
    std::vector<Span> spans = collect();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64
                     ",\"id\":%" PRIu64 ",\"parent\":%" PRIu64 "}}%s\n",
                     s.name, s.thread, static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3, s.op,
                     s.id, s.parent, i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

std::map<std::string, double>
secondsByName(const std::vector<Span>& spans, const std::set<uint64_t>* ops)
{
    std::map<std::string, double> seconds;
    for (const Span& s : spans)
        if (ops == nullptr || ops->count(s.op) != 0)
            seconds[s.name] += static_cast<double>(s.endNs - s.startNs) / 1e9;
    return seconds;
}

//===----------------------------------------------------------------------===//
// Report helpers
//===----------------------------------------------------------------------===//

Tail
windowTailOf(const std::vector<LatencySample>& samples)
{
    std::map<uint64_t, std::vector<double>> by_block;
    for (const LatencySample& s : samples)
        by_block[s.block].push_back(s.seconds);
    std::vector<std::vector<double>> windows(1);
    for (auto& entry : by_block) {
        if (windows.back().size() >= kTailWindowSamples)
            windows.emplace_back();
        windows.back().insert(windows.back().end(), entry.second.begin(),
                              entry.second.end());
    }
    if (windows.size() > 1 && windows.back().size() < kTailWindowSamples) {
        std::vector<double> last = std::move(windows.back());
        windows.pop_back();
        windows.back().insert(windows.back().end(), last.begin(), last.end());
    }
    Tail result;
    result.samples = samples.size();
    result.beyond = samples.size();
    std::vector<double> values;
    for (std::vector<double>& window : windows) {
        Tail tail = tailOf(std::move(window));
        values.push_back(tail.value);
        result.percentile = std::min(result.percentile, tail.percentile);
        result.beyond = std::min(result.beyond, tail.beyond);
    }
    result.value = median(std::move(values));
    result.windows = windows.size();
    return result;
}

namespace {

/** The steal and total tick counts of the "cpu" line of /proc/stat. */
bool
readCpuTicks(double* steal, double* total)
{
    std::FILE* file = std::fopen("/proc/stat", "r");
    if (file == nullptr)
        return false;
    unsigned long long v[8] = {};
    const int read =
        std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(file);
    if (read != 8)
        return false;
    *steal = static_cast<double>(v[7]);
    *total = 0.0;
    for (unsigned long long ticks : v)
        *total += static_cast<double>(ticks);
    return true;
}

/** The quiet values of @p reps, with a note on how many were kept. */
std::vector<double>
quietValues(const std::vector<Measured>& reps, const char* what,
            Report& report)
{
    std::vector<double> values, shares;
    for (size_t i : quietOnes(reps))
        values.push_back(reps[i].value);
    for (const Measured& m : reps)
        shares.push_back(m.steal);
    char note[160];
    std::snprintf(note, sizeof(note),
                  "%s: %zu of %zu quiet (median steal share %.3f)", what,
                  values.size(), reps.size(), median(std::move(shares)));
    report.notes.push_back(note);
    return values;
}

} // namespace

StealMeter::StealMeter()
{
    if (!readCpuTicks(&steal_, &total_))
        total_ = -1.0;
}

double
StealMeter::share() const
{
    double steal = 0.0, total = 0.0;
    if (total_ < 0.0 || !readCpuTicks(&steal, &total) || total <= total_)
        return 0.0;
    return (steal - steal_) / (total - total_);
}

std::vector<size_t>
quietOnes(const std::vector<Measured>& reps)
{
    std::vector<double> shares;
    for (const Measured& m : reps)
        shares.push_back(m.steal);
    const double limit = std::max(kQuietSteal, median(std::move(shares)));
    std::vector<size_t> kept;
    for (size_t i = 0; i < reps.size(); ++i)
        if (reps[i].steal <= limit)
            kept.push_back(i);
    return kept;
}

void
reportEndToEnd(const EndToEnd& e2e, Report& report)
{
    const std::vector<double> setups =
        quietValues(e2e.setups, "set-ups", report);
    const std::vector<double> rates1t =
        quietValues(e2e.blocks1t, "1-thread blocks", report);
    const std::vector<double> rates =
        quietValues(e2e.blocks, "parallel blocks", report);
    const std::vector<size_t> kept =
        quietOnes(e2e.latencyAt1t ? e2e.blocks1t : e2e.blocks);
    const std::set<size_t> kept_set(kept.begin(), kept.end());
    std::vector<LatencySample> latencies;
    for (const LatencySample& s : e2e.latencies)
        if (kept_set.count(s.block) != 0)
            latencies.push_back(s);

    std::map<uint64_t, std::vector<double>> by_kind;
    for (const LatencySample& s : latencies)
        by_kind[s.kind].push_back(s.seconds);
    std::vector<double> kind_medians;
    for (auto& entry : by_kind)
        kind_medians.push_back(median(std::move(entry.second)));
    const Tail tail = windowTailOf(latencies);
    char note[240];
    std::snprintf(note, sizeof(note),
                  "latency_tail_s: p%g, median of %zu windows of >= %zu "
                  "per-op samples (%zu in all, >= %zu beyond p%g in each)",
                  tail.percentile, tail.windows, kTailWindowSamples,
                  tail.samples, tail.beyond, tail.percentile);
    report.notes.push_back(note);
    if (tail.beyond < 10)
        report.problem("latency_tail_s has fewer than 10 samples beyond it");
    const double ok_frac =
        report.attempted == 0
            ? 0.0
            : static_cast<double>(report.attempted - report.failed) /
                  static_cast<double>(report.attempted);
    report.metric("setup_s", median(setups), "s");
    report.metric("rate_1t", median(rates1t), "1/s");
    report.metric("rate", median(rates), "1/s");
    report.metric("latency_p50_s", median(kind_medians), "s");
    report.metric("latency_tail_s", tail.value, "s");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
    report.metric("ok_frac", ok_frac, "fraction");
}

const std::vector<std::pair<std::string, std::string>>&
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> kMetrics = {
        // lenet_sweep
        {"dse.apply_s", "s"},
        {"transforms.partition_s", "s"},
        {"estimator.estimate_s", "s"},
        {"dse.stage_coverage_frac", "fraction"},
        {"estimator.memo_hit_frac", "fraction"},
        {"estimator.memo_lookups", "count"},
        {"estimator.hash_recomputes_per_point", "count"},
        {"estimator.sim_runs_per_point", "count"},
        {"estimator.schedule_builds", "count"},
        {"dse.busy_frac", "fraction"},
        {"dse.scaling_2t", "x"},
        {"dse.scaling_4t", "x"},
        // compile_zoo
        {"frontend.build_s", "s"},
        {"transforms.pipeline_s", "s"},
        {"transforms.pass.func-dataflow-construct_s", "s"},
        {"transforms.pass.task-fusion_s", "s"},
        {"transforms.pass.lower-nn-to-affine_s", "s"},
        {"transforms.pass.lower-to-structural_s", "s"},
        {"transforms.pass.multi-producer-elim_s", "s"},
        {"transforms.pass.balance-data-paths_s", "s"},
        {"transforms.pass.parallelize_s", "s"},
        {"transforms.pass.array-partition_s", "s"},
        {"transforms.pass.pipeline-directives_s", "s"},
        {"transforms.pass.create-interfaces_s", "s"},
        {"estimator.cold_s", "s"},
        {"emitter.emit_s", "s"},
        {"emitter.bytes", "bytes"},
        {"transforms.ir_ops", "count"},
        // service_mix
        {"service.queue_wait_p50_s", "s"},
        {"service.queue_wait_tail_s", "s"},
        {"service.run_p50_s", "s"},
        {"service.overhead_p50_s", "s"},
        {"dse.store_hit_frac", "fraction"},
        {"dse.store_lookups", "count"},
        {"dse.points_evaluated", "count"},
        {"dse.store_bytes", "bytes"},
        {"service.max_in_flight", "count"},
        {"service.shed_frac", "fraction"},
        {"service.retries", "count"},
        // every workload
        {"trace.overhead_frac", "fraction"},
    };
    return kMetrics;
}

void
reportPerLayer(const std::map<std::string, double>& values, Report& report)
{
    std::string idle;
    for (const auto& [name, unit] : perLayerMetrics()) {
        auto it = values.find(name);
        if (it == values.end())
            idle += (idle.empty() ? "" : " ") + name;
        report.metric(name, it == values.end() ? 0.0 : it->second, unit);
    }
    for (const auto& [name, value] : values) {
        bool known = false;
        for (const auto& entry : perLayerMetrics())
            known = known || entry.first == name;
        if (!known)
            report.problem("unlisted per-layer metric " + name);
    }
    if (!idle.empty())
        report.notes.push_back("not exercised by this workload (reported "
                               "as 0): " + idle);
}

} // namespace perfbench
