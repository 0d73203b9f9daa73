#ifndef HIDA_PERFBENCH_BENCH_H
#define HIDA_PERFBENCH_BENCH_H

/**
 * @file
 * Shared pieces of the repository benchmark: run configuration, the
 * in-memory span tracer, sample statistics, the per-run report and the
 * pinned execution shapes. Each workload (lenet_sweep.cc,
 * compile_zoo.cc, service_mix.cc) fills one Report; main.cc prints it as
 * the final JSON line.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/**
 * Pinned execution shape. The parallel shape of every workload uses this
 * many load threads (sweep workers, compile threads, service clients,
 * executor lanes and per-request sweep workers); it is a constant so a
 * host setting can never change what is measured.
 */
constexpr unsigned kLoadThreads = 4;

/** Command-line configuration of one run. */
struct RunConfig {
    std::string root;      ///< Checkout root (golden files, scratch dir).
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;  ///< Measurement budget.
    bool trace = false;
    /** Scratch directory for store files and traces. */
    std::string scratch;
};

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** @p seconds after @p t. */
inline Clock::time_point
plusSeconds(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/** When the process started (static initialization). */
Clock::time_point processStart();

/**
 * Untimed parallel blocks run for this long between set-up and the timed
 * blocks. On a shared host, idle vCPUs given parallel work ran 2-4x slow
 * for about the first second (a plain 4-thread arithmetic loop showed the
 * same), which would otherwise land in the first latency samples.
 */
constexpr double kRampSeconds = 1.0;

/** The @p q quantile of @p v, interpolated between closest ranks (0 when
 * empty). */
double quantile(std::vector<double> v, double q);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Tail of a latency sample: the highest percentile of a fixed ladder
 * (50, 90, 99, 99.9, 99.99) that still has at least ten samples strictly
 * beyond it. Decade steps keep the choice stable when the sample count
 * moves by less than a factor of ten. With fewer than 20 samples no percentile
 * qualifies and the maximum is reported with percentile 100.
 */
struct Tail {
    double value = 0.0;
    double percentile = 100.0;
    size_t samples = 0;
    size_t beyond = 0;
    size_t windows = 1;
};
Tail tailOf(std::vector<double> v);

/**
 * Pins the calling thread, and every thread it starts while pinned, to
 * one CPU; restores the previous CPU mask on destruction. Successive pins
 * rotate over every CPU the process may use. The single-threaded blocks of
 * lenet_sweep and compile_zoo run under a pin so that every run samples
 * every CPU equally: on a shared host
 * the CPUs differ in speed (one 4-vCPU host ran the same one-thread
 * compile block at ~320/s on one vCPU and ~500/s on the other three),
 * and an unpinned thread stays on whichever CPU it lands on for seconds.
 * service_mix's one-client epochs run pinned too, service threads and
 * all: unpinned, each hand-off woke an idle vCPU, and on a busy host the
 * same epochs saw 4-5x the steal share and ran up to 30% slower.
 */
class CpuPin {
  public:
    CpuPin();
    ~CpuPin();
    CpuPin(const CpuPin&) = delete;
    CpuPin& operator=(const CpuPin&) = delete;

  private:
    std::vector<int> saved_;  ///< CPUs allowed before pinning.
};

/** Rounds of a traced run whose blocks record spans; later rounds run
 * untraced blocks only. Bounds a lenet_sweep trace at ~400k spans. */
constexpr uint64_t kTracedRounds = 2;

/** Tracing overhead from one-thread blocks run in pairs (untraced
 * plain[i], traced traced[i]): the median of plain / traced rate, − 1. */
double tracingOverhead(const std::vector<double>& plain,
                       const std::vector<double>& traced);

/** Peak resident set of the process in MiB. */
double peakRssMb();

/** Deterministic 64-bit hash of a byte string (FNV-1a). */
uint64_t fnv1a(const std::string& bytes);

/** Bit pattern of a double, for exact digests. */
uint64_t bitsOf(double d);

/** A seeded permutation of [0, n). */
std::vector<size_t> seededOrder(size_t n, uint64_t seed, uint64_t salt);

//===----------------------------------------------------------------------===//
// Span tracer
//===----------------------------------------------------------------------===//

/** One recorded span. Names are string literals (stored by pointer). */
struct Span {
    const char* name = nullptr;
    uint64_t id = 0;      ///< Unique span id.
    uint64_t parent = 0;  ///< Enclosing span id on the same thread (0: none).
    uint64_t op = 0;      ///< Op id shared by every span of one op.
    uint32_t thread = 0;
    int64_t startNs = 0;  ///< Since the tracer's epoch.
    int64_t endNs = 0;
};

/**
 * In-memory span recorder. Spans go to per-thread buffers (no lock on the
 * hot path once a thread registered) and are written once, at the end,
 * as a Chrome trace-event JSON file. Disabled tracers record nothing.
 */
class Tracer {
  public:
    static Tracer& get();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Fresh op id (spans of one op carry it). */
    uint64_t newOp();

    /** Open a span on this thread, inside its innermost open span. */
    void begin(const char* name, uint64_t op);
    /** Close the innermost open span of this thread. */
    void end();
    /** Record a completed span with explicit timestamps (children whose
     * duration the program reports instead of exposing a call). */
    void record(const char* name, uint64_t op, Clock::time_point start,
                Clock::time_point end);

    /** Every span recorded so far, merged across threads. Call when no
     * traced thread is running. */
    std::vector<Span> collect() const;
    /** Write all spans as a trace-event JSON file. */
    bool write(const std::string& path) const;

  private:
    struct Buffer {
        uint32_t thread = 0;
        std::vector<Span> spans;
        std::vector<size_t> open;  ///< Indices of open spans (stack).
        uint64_t count = 0;

        /** Span ids are unique per process without a shared counter:
         * the thread index in the high bits, a local count below. */
        uint64_t
        nextId()
        {
            return (static_cast<uint64_t>(thread + 1) << 40) | ++count;
        }
    };
    Buffer& local();
    int64_t sinceEpochNs(Clock::time_point t) const;
    /** Append a span that starts at @p start_ns, inside the innermost open
     * span of @p buffer's thread. */
    Span& append(Buffer& buffer, const char* name, uint64_t op,
                 int64_t start_ns);

    std::atomic<bool> enabled_{false};
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;  ///< Guards buffers_ and nextOp_.
    std::vector<std::unique_ptr<Buffer>> buffers_;
    uint64_t nextOp_ = 1;
};

/** RAII span: begin on construction, end on destruction. */
class SpanScope {
  public:
    SpanScope(const char* name, uint64_t op)
        : active_(Tracer::get().enabled())
    {
        if (active_)
            Tracer::get().begin(name, op);
    }
    ~SpanScope()
    {
        if (active_)
            Tracer::get().end();
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    bool active_;
};

/** Total seconds per span name over @p spans, or over the spans of the
 * ops in @p ops when given. */
std::map<std::string, double>
secondsByName(const std::vector<Span>& spans,
              const std::set<uint64_t>* ops = nullptr);

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

/** One run's result: outcome counts and named metrics with units. */
struct Report {
    size_t attempted = 0;
    size_t failed = 0;
    /** Failed run-level checks beyond the per-op ones (digest equality
     * across thread counts, interpreter oracle, pipeline equality...). */
    std::vector<std::string> problems;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;

    void
    metric(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, {value, unit}});
    }
    void
    problem(const std::string& what)
    {
        problems.push_back(what);
    }
    void
    countOp(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** One op's latency, tagged with its block and its kind (what it
 * computes: a prototype, a program/flow, a request). */
struct LatencySample {
    uint64_t block = 0;
    uint64_t kind = 0;
    double seconds = 0.0;
};

/** Consecutive whole blocks are grouped into tail windows of at least
 * this many samples (a run with fewer samples is one window). */
constexpr size_t kTailWindowSamples = 1000;

/**
 * Tail of per-op samples taken in blocks: in each tail window the tailOf
 * percentile (the highest ladder percentile with at least ten of the
 * window's samples beyond it); the value is the median over windows, the
 * percentile and the support (samples beyond) the smallest over windows.
 * A pooled p99.9 over a whole run rests on its few dozen slowest ops,
 * which on a shared host are whichever host stall fell in the run: over
 * five runs it put service_mix's tail anywhere from 5.5 to 9.9 ms.
 */
Tail windowTailOf(const std::vector<LatencySample>& samples);

/**
 * Share of all CPU time of the machine that its hypervisor gave to other
 * guests (the "steal" column of the "cpu" line of /proc/stat) since the
 * meter was made. 0 when /proc/stat cannot be read or no tick passed.
 */
class StealMeter {
  public:
    StealMeter();
    double share() const;

  private:
    double steal_ = 0.0;
    double total_ = 0.0;
};

/** One timed repetition (a block's op rate, or a set-up's seconds) and
 * the steal share while it ran. */
struct Measured {
    double value = 0.0;
    double steal = 0.0;
};

/** Run @p run (one repetition, returning its value) under a StealMeter. */
template <typename F>
Measured
measure(F&& run)
{
    StealMeter meter;
    const double value = run();
    return {value, meter.share()};
}

/**
 * Repetitions whose steal share is at most this are "quiet". On a shared
 * 4-vCPU host, service_mix blocks with 7% of the machine stolen ran at
 * ~60% of the rate of blocks with none, in the same run.
 */
constexpr double kQuietSteal = 0.02;

/** Indices of the repetitions the end-to-end metrics use: those with a
 * steal share of at most max(kQuietSteal, the median share), so a run on
 * a busy host uses its quieter half. */
std::vector<size_t> quietOnes(const std::vector<Measured>& reps);

/**
 * The seven end-to-end metrics, shared by every workload, each taken over
 * the quietOnes of its repetitions. setup_s is the median set-up time;
 * the first set-up is timed from process start, one more runs after each
 * timed round, so the set-ups sample the whole run as the blocks do.
 * rate_1t and rate are medians of per-block rates. latency_p50_s is the
 * median over op kinds of each kind's median latency: a workload mixes op
 * kinds of very different cost (lenet_sweep's dataflow sweeps take ~4x
 * its non-dataflow ones, five of each), and the pooled median of such a
 * mix falls in the gap between modes, where it jumps from run to run.
 * latency_tail_s is windowTailOf the same samples.
 */
struct EndToEnd {
    std::vector<Measured> setups;    ///< Seconds per set-up.
    std::vector<Measured> blocks1t;  ///< Rate per block, 1 thread.
    std::vector<Measured> blocks;    ///< Rate per block, parallel.
    /** Per op; LatencySample::block indexes blocks1t when latencyAt1t,
     * else blocks. */
    std::vector<LatencySample> latencies;
    /** Latencies come from the 1-thread blocks: a serial op's latency is
     * what lenet_sweep and compile_zoo users wait for, while service_mix
     * latency includes queueing behind other clients. */
    bool latencyAt1t = false;
};
void reportEndToEnd(const EndToEnd& e2e, Report& report);

/** Every per-layer metric name with its unit, in BENCHMARK.json order.
 * A traced run reports all of them; layers a workload leaves idle read
 * 0 (listed in the run's notes). */
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

/** Report @p values (name -> value) as the full per-layer metric set. */
void reportPerLayer(const std::map<std::string, double>& values,
                    Report& report);

// Workload entry points.
void runLenetSweep(const RunConfig& config, Report& report);
void runCompileZoo(const RunConfig& config, Report& report);
void runServiceMix(const RunConfig& config, Report& report);

// Print the pinned regression digest tables (references.cc).
void printLenetReferences();
void printZooReferences(const RunConfig& config);

} // namespace perfbench

#endif // HIDA_PERFBENCH_BENCH_H
