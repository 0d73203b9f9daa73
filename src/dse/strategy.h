#ifndef HIDA_DSE_STRATEGY_H
#define HIDA_DSE_STRATEGY_H

/**
 * @file
 * Search strategies over a DesignPointGrid — the layer that makes the
 * design space tractable without enumerating it (the paper's own Figure
 * 1 motivation: >2.4e4 points for LeNet alone). A SearchStrategy
 * proposes batches of grid indices and consumes (index, objectives)
 * results; runStrategySweep() drives one through a persistent worker
 * pool. It is the only sweep driver: an exhaustive sweep is the
 * exhaustive strategy (one batch holding the whole grid), so every
 * sweep gets the same per-point pipeline — fault isolation, checkpoint
 * resume, deadline, cancel and point budget.
 *
 * Four built-in strategies (makeStrategy / HIDA_DSE_STRATEGY):
 *  - exhaustive: every point, one batch, proposed in the configured
 *    PointOrder (HIDA_DSE_ORDER; gray by default, so consecutive
 *    points mutate exactly one directive) — byte-identical output at
 *    any order and thread count.
 *  - random: seeded uniform sampling without replacement.
 *  - lhs: latin-hypercube sampling over the named axes (every axis
 *    stratified into budget slices, permuted independently).
 *  - evolve: Pareto-guided evolutionary search — seeds with a
 *    latin-hypercube scatter, then mutates non-dominated archive
 *    members by stepping one or two axes to neighboring values, so
 *    consecutive points share most of their directive fingerprints and
 *    hit the warm node/schedule caches (QorEstimator::cacheStats()
 *    proves it). Dominated points are pruned from the parent pool on
 *    arrival (ParetoArchive).
 *
 * Determinism rules (pinned by tests/dse_strategy_test.cc):
 *  - propose()/consume() run only on the serial driver loop; workers
 *    never touch strategy state.
 *  - Every random decision is keyed on (seed, iteration, counter)
 *    through pure hashes — never a thread id, a clock, or an
 *    evaluation-completion order (the PR 6 fault-injection rule).
 *  - Batch results are fed back in batch order, and evaluation itself
 *    is deterministic (warm == cold, per the differential fuzzer), so
 *    a fixed seed reproduces the identical search at any
 *    HIDA_BENCH_THREADS.
 *
 * Thread-safety: a SearchStrategy is confined to the driver thread
 * (strictly per-driver in the ROADMAP sharing rules). StrategyWorkerPool
 * is internally synchronized; each pool worker owns its ResilientWorker
 * state (module clone, estimator, passes) for the whole sweep.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/dse/pareto.h"
#include "src/dse/sweep.h"

namespace hida {

/**
 * One evaluated point fed back to a strategy: its grid index and, when
 * ok, its objectives (cost minimized, value maximized). ok=false means
 * the point failed (structured PointFailure in the outcome) or was not
 * reached before a stop condition — either way the strategy learned
 * nothing about its objectives.
 */
struct StrategyResult {
    size_t index = 0;
    bool ok = false;
    double cost = 0.0;
    double value = 0.0;
};

/**
 * Batch-synchronous search strategy. The driver loop alternates
 * propose() and consume() until propose() returns an empty batch.
 *
 * Contract: a strategy never proposes the same index twice (across its
 * whole lifetime), proposes at most its configured budget, and keeps
 * batch composition independent of worker count — all state advances
 * only in propose()/consume() on the driver thread.
 *
 * Thread-safety: not synchronized; confine one strategy to one driver.
 */
class SearchStrategy {
  public:
    virtual ~SearchStrategy() = default;

    /** Stable strategy name (the HIDA_DSE_STRATEGY spelling). */
    virtual std::string_view name() const = 0;

    /**
     * Append the next batch of grid indices to @p out (left empty when
     * the search is finished). Indices are unique across the whole
     * search, so the executor evaluates each at most once.
     */
    virtual void propose(std::vector<size_t>& out) = 0;

    /**
     * Feed back the last proposed batch, in batch order (one entry per
     * proposed index). Called exactly once per non-empty propose().
     */
    virtual void consume(const std::vector<StrategyResult>& results) = 0;
};

/** The built-in strategy kinds (HIDA_DSE_STRATEGY spellings). */
enum class StrategyKind { kExhaustive, kRandom, kLhs, kEvolve };

/** Parse "exhaustive|random|lhs|evolve" (nullopt on anything else). */
std::optional<StrategyKind> parseStrategyKind(std::string_view name);

/** Stable name of @p kind (the inverse of parseStrategyKind). */
std::string_view strategyKindName(StrategyKind kind);

/** Construction parameters of the built-in strategies. */
struct StrategyOptions {
    StrategyKind kind = StrategyKind::kExhaustive;
    /** Root of every random decision (HIDA_DSE_SEED). */
    uint64_t seed = 42;
    /**
     * Max points a sampling strategy proposes per sweep
     * (HIDA_DSE_BUDGET); 0 = 10% of the grid (the acceptance budget).
     * Ignored by exhaustive.
     */
    size_t budget = 0;
    /**
     * evolve only: consumed points with cost above this never enter the
     * parent archive (infeasible region, e.g. utilization > 1.05);
     * 0 = no limit.
     */
    double costLimit = 0.0;
    /**
     * Enumeration order of the exhaustive strategy (HIDA_DSE_ORDER).
     * Gray code proposes single-directive steps for maximal estimator
     * memo reuse; sampling strategies choose their own batch
     * compositions and ignore it.
     */
    PointOrder order = PointOrder::kGrayCode;
};

/**
 * Build a strategy over @p grid (which must outlive the strategy).
 * Budget defaults are resolved against grid.size() here.
 */
std::unique_ptr<SearchStrategy> makeStrategy(const DesignPointGrid& grid,
                                             const StrategyOptions& options);

/**
 * StrategyOptions from the environment: HIDA_DSE_STRATEGY (default
 * exhaustive), HIDA_DSE_SEED (default 42), HIDA_DSE_BUDGET (default 0 =
 * 10% of grid), HIDA_DSE_ORDER (default gray). An unknown strategy
 * name or a malformed/overflowing number is a *user* error:
 * HIDA_FATAL, exit kFatalExitCode (65) — never a silent fallback to
 * exhaustive (and never a silent clamp of an overflowed seed).
 */
StrategyOptions strategyOptionsFromEnv();

/**
 * Work-stealing distribution of [0, count) over one pool's workers.
 * Each worker owns a contiguous slot [count*w/W, count*(w+1)/W) it
 * consumes from the front in chunks; a dry worker steals the back half
 * of a victim's remainder and adopts it. Owners keep their locality
 * (neighboring positions differ in few axes — exactly one under
 * PointOrder::kGrayCode), and uneven point costs, or a worker that died
 * in its init, never strand work. reset() must happen-before the
 * workers' take() calls (the pool's round hand-off provides that);
 * take() is safe to call concurrently from all workers.
 */
class WorkQueue {
  public:
    /** Carve [0, count) into @p workers owner slots. */
    void reset(size_t count, size_t workers);

    /**
     * Claim the next chunk for worker @p self as [*begin, *end).
     * Returns false when no work is left anywhere this worker can see
     * (a concurrent steal-adoption may retire a worker one chunk early;
     * work is never lost, only finished by the adopter).
     */
    bool take(size_t self, size_t* begin, size_t* end);

  private:
    struct Slot {
        std::mutex mutex;
        size_t next = 0;
        size_t end = 0;
    };
    // deque, not vector: Slot holds a std::mutex and must never move.
    std::deque<Slot> slots_;
    size_t chunk_ = 1;
};

/**
 * A fixed-size pool of persistent worker threads for batch-by-batch
 * sweeps. The pool keeps each worker — and therefore its module clone
 * and warm estimator caches — alive across batches, which is what lets
 * an evolutionary strategy's neighbor points hit the caches its earlier
 * batches warmed.
 *
 * Each runRound() over count positions is distributed through a
 * WorkQueue: worker w starts on the contiguous slice
 * [count*w/W, count*(w+1)/W) and, once dry, adopts tail halves of
 * straggler slices.
 *
 * Exception safety: an exception escaping a worker's init or run hook
 * retires that worker as a kWorkerFailed Diagnostic (workerFailures())
 * instead of calling std::terminate — the dead worker keeps acking
 * rounds so the driver never deadlocks, and the survivors drain its
 * slices.
 *
 * Thread-safety: runRound()/shutdown()/workerFailures() are
 * driver-only; the pool internally synchronizes hand-off to its
 * workers (mutex + condvars), so everything the driver wrote before
 * runRound() is visible to workers, and worker writes are visible to
 * the driver when runRound() returns. With one worker the pool runs
 * inline on the driver thread (the serial reference semantics).
 */
class StrategyWorkerPool {
  public:
    /** Per-worker hooks, created on the worker's own thread. */
    struct WorkerFns {
        /** Evaluate batch positions [begin, end) of the current round. */
        std::function<void(size_t begin, size_t end)> run;
        /** Called once when the pool shuts down (still on the worker
         * thread — thread_local stats are readable). Optional. */
        std::function<void()> finish;
    };
    using WorkerInit = std::function<WorkerFns()>;

    /** Spawn @p workers threads (1 = inline mode, no thread). @p init
     * runs once per worker on that worker's thread. */
    StrategyWorkerPool(unsigned workers, WorkerInit init);
    /** Joins (runs shutdown()) if the driver has not already. */
    ~StrategyWorkerPool();

    StrategyWorkerPool(const StrategyWorkerPool&) = delete;
    StrategyWorkerPool& operator=(const StrategyWorkerPool&) = delete;

    unsigned workers() const { return workers_; }

    /** Run one round over @p count batch positions; blocks until every
     * worker finished its slice. */
    void runRound(size_t count);

    /** Run every worker's finish hook and join the threads. */
    void shutdown();

    /** Workers retired by an escaped exception (code kWorkerFailed).
     * Read between rounds or after shutdown() — the round hand-off
     * orders worker writes before the driver's read. */
    const std::vector<Diagnostic>&
    workerFailures() const
    {
        return workerFailures_;
    }

  private:
    void workerMain(unsigned index);
    void recordWorkerFailure(unsigned index, const std::string& what);

    unsigned workers_ = 1;
    WorkerInit init_;
    WorkQueue queue_;
    std::vector<std::thread> threads_;
    /** Inline-mode worker (workers_ == 1), created lazily. */
    WorkerFns serial_;
    bool serialInit_ = false;
    bool serialDead_ = false;
    bool shutdown_ = false;

    std::mutex failuresMutex_;
    std::vector<Diagnostic> workerFailures_;

    std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    uint64_t round_ = 0;    ///< Round generation counter.
    unsigned done_ = 0;     ///< Workers finished with the current round.
    bool exit_ = false;
};

/** Aggregate counters of one strategy-driven sweep. */
struct StrategySweepStats {
    size_t batches = 0;    ///< Non-empty batches proposed.
    size_t proposed = 0;   ///< Indices proposed across all batches.
    size_t evaluated = 0;  ///< Points newly evaluated (restores are free).
    size_t restored = 0;   ///< Points restored from the checkpoint.
    bool stopped = false;  ///< A SweepLimits condition ended the sweep.
    std::optional<Diagnostic> stopReason;  ///< Set when stopped.
    /** Workers retired by an escaped exception (code kWorkerFailed). */
    std::vector<Diagnostic> workerFailures;
    /** Estimator cache counters summed over all workers. */
    QorCacheStats cache;
};

/**
 * Outcome of runStrategySweep: results/completed are indexed by *grid*
 * index, failures are merged in grid order. A point is either completed
 * (results[i] valid), failed (a PointFailure carries its diagnostic),
 * or not reached (not proposed, the sweep stopped first, or every
 * worker died). Points not completed keep a default-constructed result.
 */
template <typename R>
struct StrategyOutcome {
    std::vector<R> results;             ///< Valid where completed[i] != 0.
    std::vector<uint8_t> completed;     ///< Per grid index.
    std::vector<PointFailure> failures; ///< Grid order.
    StrategySweepStats stats;

    /** Every grid point completed (the exhaustive contract). */
    bool
    allCompleted() const
    {
        return std::find(completed.begin(), completed.end(), 0) ==
               completed.end();
    }
};

/**
 * Drive @p strategy over @p grid with @p threads persistent workers.
 *
 * Per batch: the strategy proposes indices (driver thread), the pool
 * evaluates them through one per-point pipeline (checkpoint lookup ->
 * budget -> decode -> FaultScope(index) -> evaluate, failures recovered
 * per worker), and the batch's results are fed back in batch order.
 *
 * Contract (pinned by tests/dse_fault_test.cc):
 *  - A failed point never takes the sweep down: its Diagnostic is
 *    recorded as a PointFailure (merged in grid order) and the
 *    worker's recover hook runs before the next point. An exception
 *    out of evaluate is such a failure (kWorkerFailed); one out of the
 *    factory retires only that worker (stats.workerFailures) and the
 *    survivors evaluate its points.
 *  - Surviving points are bit-identical to a clean run at any thread
 *    count (failures are decided by the deterministic fault key = grid
 *    index, never by worker or timing).
 *  - limits.deadlineSeconds / cancel / pointBudget stop all workers
 *    between points; completed results remain valid.
 *  - With limits.checkpoint, every completed point is inserted into
 *    that QorStore under its grid.pointFingerprint(i) key (a batched
 *    snapshot flush follows via maybeFlush(), and the sweep flushes
 *    once more on exit), and a restarted sweep looks each point up
 *    first, restoring it byte-exactly instead of re-evaluating (same
 *    output hash as an uninterrupted run). The lookup runs outside the
 *    point's FaultScope, so a restore is never a fault-injection site.
 *
 * R must be trivially copyable (checkpointed byte-exactly) and
 * default-constructible (placeholder for unreached points).
 *
 * @p objective maps a completed result to its ParetoSample objectives
 * for strategy feedback (the index field is overwritten).
 *
 * The evaluation order is a *strategy* concern: the exhaustive strategy
 * takes it from StrategyOptions::order at construction; batches
 * arriving here are sliced across workers in their proposed order.
 *
 * Determinism: for a fixed strategy seed the proposed indices, results
 * and failures are bit-identical at any @p threads, because strategy
 * state only advances on the driver and every failure decision keys on
 * the grid index (see the file comment).
 */
template <typename R>
StrategyOutcome<R>
runStrategySweep(const DesignPointGrid& grid, SearchStrategy& strategy,
                 const std::function<ResilientWorker<R>()>& factory,
                 const std::function<ParetoSample(size_t, const R&)>& objective,
                 unsigned threads, const SweepLimits& limits = SweepLimits())
{
    static_assert(std::is_trivially_copyable_v<R>,
                  "sweep results are checkpointed as raw bytes");
    const size_t n = grid.size();
    StrategyOutcome<R> out;
    out.results.resize(n);
    out.completed.assign(n, 0);

    QorStore* checkpoint = limits.checkpoint;
    HIDA_ASSERT(checkpoint == nullptr || checkpoint->payloadSize() == sizeof(R),
                "checkpoint payload size does not match the result type");

    std::atomic<bool> stop{false};
    // 0 = running, else the stop cause (first writer wins).
    std::atomic<int> stop_cause{0};
    std::atomic<size_t> evaluated{0};
    std::atomic<size_t> restored{0};
    const bool has_deadline = limits.deadlineSeconds > 0.0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                has_deadline ? limits.deadlineSeconds : 0.0));
    std::mutex merge_mutex;  // Guards failures + aggregated cache stats.

    // The current batch: written by the driver between rounds, read by
    // workers during one (the pool's round hand-off orders the two).
    std::vector<size_t> batch;

    unsigned workers = std::max(1u, threads);
    workers = std::min(workers, static_cast<unsigned>(std::max<size_t>(n, 1)));
    StrategyWorkerPool pool(
        workers,
        [&]() -> StrategyWorkerPool::WorkerFns {
            auto worker =
                std::make_shared<ResilientWorker<R>>(factory());
            StrategyWorkerPool::WorkerFns fns;
            fns.run = [&, worker](size_t begin, size_t end) {
                std::vector<int64_t> values;
                std::vector<PointFailure> local_failures;
                for (size_t pos = begin; pos < end; ++pos) {
                    if (stop.load(std::memory_order_relaxed))
                        break;
                    if (limits.cancel != nullptr &&
                        limits.cancel->cancelled()) {
                        int expected = 0;
                        stop_cause.compare_exchange_strong(expected, 2);
                        stop.store(true, std::memory_order_relaxed);
                        break;
                    }
                    if (has_deadline &&
                        std::chrono::steady_clock::now() >= deadline) {
                        int expected = 0;
                        stop_cause.compare_exchange_strong(expected, 1);
                        stop.store(true, std::memory_order_relaxed);
                        break;
                    }
                    const size_t i = batch[pos];
                    // Before the point's FaultScope: a checkpoint
                    // restore is never a FaultSite::kStore site.
                    if (checkpoint != nullptr &&
                        checkpoint->lookup(grid.pointFingerprint(i),
                                           &out.results[i])) {
                        out.completed[i] = 1;
                        restored.fetch_add(1, std::memory_order_relaxed);
                        continue;
                    }
                    if (limits.pointBudget > 0) {
                        size_t prev = evaluated.fetch_add(
                            1, std::memory_order_relaxed);
                        if (prev >= limits.pointBudget) {
                            evaluated.fetch_sub(1, std::memory_order_relaxed);
                            int expected = 0;
                            stop_cause.compare_exchange_strong(expected, 3);
                            stop.store(true, std::memory_order_relaxed);
                            break;
                        }
                    } else {
                        evaluated.fetch_add(1, std::memory_order_relaxed);
                    }
                    grid.decode(i, values);
                    // The fault key is the grid index: injected failures
                    // are identical at any thread count.
                    FaultScope fault_scope(i);
                    // An exception out of evaluate is a per-point
                    // failure, not a dead worker: catch it here so the
                    // worker recovers and keeps evaluating.
                    Result<R> result = guardedEvaluate<R>(
                        i, "evaluate",
                        [&] { return worker->evaluate(i, values); });
                    if (result.ok()) {
                        out.results[i] = result.value();
                        out.completed[i] = 1;
                        if (checkpoint != nullptr) {
                            checkpoint->insert(grid.pointFingerprint(i),
                                               &out.results[i]);
                            checkpoint->maybeFlush();
                        }
                    } else {
                        Diagnostic diag = result.takeDiag();
                        diag.severity = Severity::kWarning;
                        emitDiagnostic(diag);
                        local_failures.push_back({i, std::move(diag)});
                        if (worker->recover)
                            worker->recover();
                    }
                }
                if (!local_failures.empty()) {
                    std::lock_guard<std::mutex> lock(merge_mutex);
                    out.failures.insert(
                        out.failures.end(),
                        std::make_move_iterator(local_failures.begin()),
                        std::make_move_iterator(local_failures.end()));
                }
            };
            fns.finish = [&, worker]() {
                if (worker->cacheStats) {
                    QorCacheStats stats = worker->cacheStats();
                    std::lock_guard<std::mutex> lock(merge_mutex);
                    out.stats.cache += stats;
                }
            };
            return fns;
        });

    std::vector<uint8_t> proposed_ever(n, 0);
    std::vector<StrategyResult> feedback;
    while (!stop.load(std::memory_order_relaxed)) {
        batch.clear();
        strategy.propose(batch);
        if (batch.empty())
            break;
        for (size_t i : batch) {
            HIDA_ASSERT(i < n, "strategy proposed index out of range");
            HIDA_ASSERT(!proposed_ever[i],
                        "strategy proposed the same index twice");
            proposed_ever[i] = 1;
        }
        ++out.stats.batches;
        out.stats.proposed += batch.size();
        pool.runRound(batch.size());
        feedback.clear();
        feedback.reserve(batch.size());
        for (size_t i : batch) {
            StrategyResult r;
            r.index = i;
            r.ok = out.completed[i] != 0;
            if (r.ok) {
                ParetoSample s = objective(i, out.results[i]);
                r.cost = s.cost;
                r.value = s.value;
            }
            feedback.push_back(r);
        }
        strategy.consume(feedback);
    }
    pool.shutdown();
    out.stats.workerFailures = pool.workerFailures();

    std::sort(out.failures.begin(), out.failures.end(),
              [](const PointFailure& a, const PointFailure& b) {
                  return a.index < b.index;
              });
    out.stats.evaluated = evaluated.load();
    out.stats.restored = restored.load();
    switch (stop_cause.load()) {
      case 1:
        out.stats.stopped = true;
        out.stats.stopReason = Diagnostic(
            ErrorCode::kDeadlineExceeded,
            strCat("sweep deadline of ", limits.deadlineSeconds,
                   "s expired"),
            "strategy-sweep");
        break;
      case 2:
        out.stats.stopped = true;
        out.stats.stopReason = Diagnostic(
            ErrorCode::kCancelled, "sweep cancelled", "strategy-sweep");
        break;
      case 3:
        out.stats.stopped = true;
        out.stats.stopReason = Diagnostic(
            ErrorCode::kCancelled,
            strCat("sweep point budget of ", limits.pointBudget,
                   " exhausted"),
            "strategy-sweep");
        break;
      default:
        break;
    }
    if (checkpoint != nullptr)
        checkpoint->flush();
    return out;
}

} // namespace hida

#endif // HIDA_DSE_STRATEGY_H
