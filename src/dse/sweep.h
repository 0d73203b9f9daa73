#ifndef HIDA_DSE_SWEEP_H
#define HIDA_DSE_SWEEP_H

/**
 * @file
 * The per-point building blocks of a DSE sweep: stop conditions
 * (SweepLimits, CancelToken), failure records (PointFailure), the
 * per-worker hooks the driver calls (ResilientWorker) and the canonical
 * clone-the-prototype worker (CloneSweepWorker). The one sweep driver,
 * runStrategySweep, and its worker pool live in src/dse/strategy.h.
 *
 * Sharing rules (see ROADMAP "Threading model"): workers share only the
 * internally synchronized process-wide tables (identifier interner, type
 * uniquer, attribute pools, op registry). Everything mutable is
 * per-worker by construction: the worker factory runs *on the worker
 * thread* and typically deep-clones the pre-lowered prototype module
 * (OwnedModule::clone), builds its own QorEstimator (all caches
 * thread-local by ownership) and its own passes. Results land in
 * disjoint slots of one preallocated vector indexed by grid order —
 * merging is a no-op and deterministic.
 */

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/driver/driver.h"
#include "src/dse/grid.h"
#include "src/dse/qor_store.h"
#include "src/support/diagnostics.h"
#include "src/support/fault_inject.h"

namespace hida {

/**
 * Cooperative cancellation: any thread may cancel(); workers observe it
 * between points and stop. Completed points stay valid.
 * A token may chain() to a parent (e.g. the process-wide shutdown
 * token, src/service/shutdown.h): cancelled() then reports true when
 * either this token or any ancestor was cancelled, so one SIGTERM stops
 * every request-scoped sweep without the service having to track them.
 */
class CancelToken {
  public:
    void cancel() { cancelled_.store(true, std::memory_order_release); }
    bool
    cancelled() const
    {
        if (cancelled_.load(std::memory_order_acquire))
            return true;
        const CancelToken* parent = parent_.load(std::memory_order_acquire);
        return parent != nullptr && parent->cancelled();
    }

    /** Also observe @p parent (not owned; must outlive this token;
     * nullptr unchains). Safe to call concurrently with cancelled(). */
    void
    chain(const CancelToken* parent)
    {
        parent_.store(parent, std::memory_order_release);
    }

  private:
    std::atomic<bool> cancelled_{false};
    std::atomic<const CancelToken*> parent_{nullptr};
};

/** One failed sweep point: where (grid index) and why (structured). */
struct PointFailure {
    size_t index = 0;
    Diagnostic diag;
};

/**
 * Evaluation order of one sweep. Gray code (the default) steps a single
 * directive per point; kRowMajor is the historical nested-loop walk.
 * The order cannot change a sweep's output — only its evaluation order
 * and wall clock (results merge by grid index).
 */
struct SweepSchedule {
    PointOrder order = PointOrder::kGrayCode;
};

/**
 * SweepSchedule from HIDA_DSE_ORDER ("gray"|"row-major"). Unset/empty
 * keeps the default; anything else is a user error (exits
 * kFatalExitCode).
 */
SweepSchedule sweepScheduleFromEnv();

/** Stop conditions and checkpointing of one sweep. */
struct SweepLimits {
    /** Wall-clock budget in seconds (<= 0: unbounded), measured from
     * runStrategySweep() entry and checked between points. */
    double deadlineSeconds = 0.0;
    /** Max *newly evaluated* points across all workers (0: unbounded);
     * checkpoint-restored points are free. The deterministic interrupt
     * knob for resume tests. */
    size_t pointBudget = 0;
    /** Cooperative cancellation (optional, not owned). */
    CancelToken* cancel = nullptr;
    /** Checkpoint store (optional, not owned): a QorStore open()ed
     * with content tag grid.contentHash() and payload size sizeof(R);
     * records are keyed by grid.pointFingerprint(i). */
    QorStore* checkpoint = nullptr;
};

/**
 * Per-worker hooks of a sweep. evaluate returns the point's
 * result or a Diagnostic; recover (optional) restores the worker to a
 * known-good state after a failed point — a half-applied point may have
 * corrupted the worker's clone, so the canonical recover deep-clones
 * the prototype again (CloneSweepWorker::rebuild). The hooks own no
 * lifetime: a caller that hands workers shared state (the service's
 * per-key clone pool) reclaims it after runStrategySweep returns.
 */
template <typename R>
struct ResilientWorker {
    std::function<Result<R>(size_t index, const std::vector<int64_t>&)>
        evaluate;
    std::function<void()> recover;
    /**
     * Optional: the worker's aggregate estimator cache counters,
     * sampled once when the worker retires (on the worker's own thread
     * — QorCacheStats folds thread_local subtree-hash counters).
     * runStrategySweep sums these across workers into
     * StrategySweepStats::cache to prove warm-cache behavior.
     */
    std::function<QorCacheStats()> cacheStats;
};

/**
 * Run @p evaluate for point @p index, turning an exception that escapes
 * it into a kWorkerFailed Diagnostic ("exception escaped <what>: ...")
 * so the caller recovers the worker and keeps going. @p what names the
 * call site ("evaluate" in the sweep driver, "retry" in the service).
 */
template <typename R, typename F>
Result<R>
guardedEvaluate(size_t index, const char* what, F&& evaluate)
{
    try {
        return evaluate();
    } catch (const std::exception& e) {
        return Diagnostic(ErrorCode::kWorkerFailed,
                          strCat("exception escaped ", what, ": ", e.what()),
                          strCat("point #", index));
    } catch (...) {
        return Diagnostic(ErrorCode::kWorkerFailed,
                          strCat("unknown exception escaped ", what),
                          strCat("point #", index));
    }
}

/**
 * The canonical worker-local state of a clone-the-prototype sweep (the
 * Figure 1 shape: one pre-lowered module, per-point directive rewrites):
 * a private deep clone of the prototype, its top function, the per-point
 * directive pass, and a private estimator whose caches warm up over the
 * worker's points. Construct inside a runStrategySweep worker factory —
 * i.e. on the worker thread — so every member is owned by that thread.
 */
struct CloneSweepWorker {
    ModuleOp prototype;
    OwnedModule module;
    FuncOp func;
    std::unique_ptr<Pass> perPointPass;
    QorEstimator estimator;

    CloneSweepWorker(ModuleOp prototype_module,
                     std::unique_ptr<Pass> per_point_pass,
                     const TargetDevice& device)
        : prototype(prototype_module),
          module(OwnedModule::clone(prototype_module)),
          func(topFunc(module.get())),
          perPointPass(std::move(per_point_pass)), estimator(device)
    {
        HIDA_ASSERT(func, "sweep prototype has no function to estimate");
    }

    /**
     * applyPoint + per-point pass + estimate, on the worker's clone.
     * Every stage (directive binding, per-point pass, estimation)
     * reports failure as a Diagnostic instead of aborting. After a
     * failure call rebuild() — the clone may be half-transformed.
     */
    Result<DesignQor>
    evaluateChecked(const DesignPointGrid& grid,
                    const std::vector<int64_t>& values)
    {
        if (auto diag = applyPointChecked(module.get(), grid, values))
            return *diag;
        if (auto diag = perPointPass->runChecked(module.get()))
            return *diag;
        return estimator.estimateFuncChecked(func);
    }

    /**
     * Re-clone the prototype and drop every memoized estimate (the
     * caches key on operation addresses of the dead clone). Warm-vs-cold
     * estimate equality is pinned by the differential fuzzer, so a
     * rebuilt worker's surviving points stay bit-identical to a clean
     * run's.
     */
    void
    rebuild()
    {
        module = OwnedModule::clone(prototype);
        func = topFunc(module.get());
        estimator.invalidateCache();
    }
};

/**
 * Verify a sweep prototype before any worker starts, surfacing findings
 * as a structured Diagnostic (never an abort): a broken prototype fails
 * the sweep up front as data instead of panicking mid-sweep in some
 * worker. Runs under the setup fault scope so HIDA_FAULT_INJECT can
 * force this path in tests.
 */
std::optional<Diagnostic> verifySweepPrototype(ModuleOp prototype);

/**
 * Worker count for benchmark sweeps: HIDA_BENCH_THREADS when set, else
 * std::thread::hardware_concurrency() (min 1). A set value must be a
 * positive integer — zero, garbage ("abc") or trailing characters
 * ("4x") are user errors (exit kFatalExitCode), never a silent
 * fallback. Output must never depend on this — the sweep merges in
 * grid order.
 */
unsigned dseThreadCount();

/** std::thread::hardware_concurrency(), floored at 1. */
unsigned dseHardwareConcurrency();

} // namespace hida

#endif // HIDA_DSE_SWEEP_H
