#include "src/dse/strategy.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "src/ir/registry.h"
#include "src/support/env.h"
#include "src/support/utils.h"

namespace hida {

//===----------------------------------------------------------------------===//
// WorkQueue
//===----------------------------------------------------------------------===//

void
WorkQueue::reset(size_t count, size_t workers)
{
    HIDA_ASSERT(workers > 0, "work queue needs at least one worker");
    // deque has no resize-in-place guarantee for shrinking mutexes
    // mid-use; reset only runs between rounds, so rebuilding is safe.
    if (slots_.size() != workers) {
        slots_.clear();
        for (size_t w = 0; w < workers; ++w)
            slots_.emplace_back();
    }
    for (size_t w = 0; w < workers; ++w) {
        Slot& slot = slots_[w];
        std::lock_guard<std::mutex> lock(slot.mutex);
        slot.next = count * w / workers;
        slot.end = count * (w + 1) / workers;
    }
    // Small enough that stragglers can be relieved, large enough that
    // queue traffic stays negligible next to point evaluation.
    chunk_ = std::clamp<size_t>(count / (workers * 16), 1, 64);
}

bool
WorkQueue::take(size_t self, size_t* begin, size_t* end)
{
    HIDA_ASSERT(self < slots_.size(), "worker index out of range");
    Slot& own = slots_[self];
    {
        std::lock_guard<std::mutex> lock(own.mutex);
        if (own.next < own.end) {
            *begin = own.next;
            *end = std::min(own.next + chunk_, own.end);
            own.next = *end;
            return true;
        }
    }
    // Own slot is dry: steal the back half of some victim's remainder
    // and adopt it. Locks are taken one slot at a time (never nested),
    // so there is no ordering to get wrong. A singleton remainder is
    // stolen whole (mid == victim.next): unclaimed points are protected
    // by the slot mutex, and a worker that died in its init never
    // comes back for its last point — the thief must be able to drain
    // the slot completely or fault rescue strands that point.
    for (size_t off = 1; off < slots_.size(); ++off) {
        size_t v = (self + off) % slots_.size();
        Slot& victim = slots_[v];
        size_t stolen_begin = 0;
        size_t stolen_end = 0;
        {
            std::lock_guard<std::mutex> lock(victim.mutex);
            size_t remaining = victim.end - victim.next;
            if (remaining == 0)
                continue;
            size_t mid = victim.next + remaining / 2;
            stolen_begin = mid;
            stolen_end = victim.end;
            victim.end = mid;
        }
        std::lock_guard<std::mutex> lock(own.mutex);
        own.next = stolen_begin;
        own.end = stolen_end;
        *begin = own.next;
        *end = std::min(own.next + chunk_, own.end);
        own.next = *end;
        return true;
    }
    // Every slot looked empty at the instant we scanned it. A
    // concurrent adoption may still surface work in another slot right
    // after — retiring here is benign (the adopter finishes it); work
    // is never lost, only slightly imbalanced at the very end.
    return false;
}

//===----------------------------------------------------------------------===//
// StrategyWorkerPool
//===----------------------------------------------------------------------===//

StrategyWorkerPool::StrategyWorkerPool(unsigned workers, WorkerInit init)
    : workers_(std::max(1u, workers)), init_(std::move(init))
{
    // Dialect registration mutates the process-wide OpRegistry; do it
    // once up front so workers never race a first-compile registration.
    registerAllDialects();
    if (workers_ == 1)
        return;  // Inline mode: no thread, worker created lazily.
    threads_.reserve(workers_);
    for (unsigned w = 0; w < workers_; ++w)
        threads_.emplace_back([this, w]() { workerMain(w); });
}

StrategyWorkerPool::~StrategyWorkerPool() { shutdown(); }

void
StrategyWorkerPool::recordWorkerFailure(unsigned index,
                                        const std::string& what)
{
    Diagnostic diag(ErrorCode::kWorkerFailed,
                    strCat("exception escaped strategy worker: ", what),
                    strCat("worker w", index));
    emitDiagnostic(diag);
    std::lock_guard<std::mutex> lock(failuresMutex_);
    workerFailures_.push_back(std::move(diag));
}

void
StrategyWorkerPool::workerMain(unsigned index)
{
    // Tag diagnostic lines with the worker index "w<index>" (emission
    // itself is serialized; see setDiagnosticThreadTag).
    setDiagnosticThreadTag(strCat("w", index));
    // Worker-local state (module clone, estimator, passes) is created
    // here, on the worker thread, and lives until shutdown — warm
    // caches survive across rounds. An exception out of init retires
    // the worker as data, but it still acks every round below so the
    // driver never deadlocks; the survivors drain its slices.
    WorkerFns fns;
    bool alive = true;
    try {
        fns = init_();
    } catch (const std::exception& e) {
        recordWorkerFailure(index, e.what());
        alive = false;
    } catch (...) {
        recordWorkerFailure(index, "unknown exception");
        alive = false;
    }
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock, [&] { return exit_ || round_ != seen; });
        if (exit_)
            break;
        seen = round_;
        lock.unlock();
        if (alive) {
            try {
                size_t begin = 0;
                size_t end = 0;
                while (queue_.take(index, &begin, &end))
                    fns.run(begin, end);
            } catch (const std::exception& e) {
                recordWorkerFailure(index, e.what());
                alive = false;
            } catch (...) {
                recordWorkerFailure(index, "unknown exception");
                alive = false;
            }
        }
        lock.lock();
        if (++done_ == workers_)
            doneCv_.notify_all();
    }
    lock.unlock();
    if (alive && fns.finish)
        fns.finish();
}

void
StrategyWorkerPool::runRound(size_t count)
{
    if (count == 0)
        return;
    if (workers_ == 1) {
        // Serial reference semantics: everything on the driver thread —
        // including the worker-boundary exception catch.
        if (serialDead_)
            return;
        try {
            if (!serialInit_) {
                serial_ = init_();
                serialInit_ = true;
            }
            serial_.run(0, count);
        } catch (const std::exception& e) {
            recordWorkerFailure(0, e.what());
            serialDead_ = true;
        } catch (...) {
            recordWorkerFailure(0, "unknown exception");
            serialDead_ = true;
        }
        return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    // Safe to reset here: every worker is parked waiting for the next
    // round (done_ == workers_ from the previous one), so none is
    // inside take().
    queue_.reset(count, workers_);
    done_ = 0;
    ++round_;
    workCv_.notify_all();
    doneCv_.wait(lock, [&] { return done_ == workers_; });
}

void
StrategyWorkerPool::shutdown()
{
    if (shutdown_)
        return;
    shutdown_ = true;
    if (workers_ == 1) {
        if (serialInit_ && serial_.finish)
            serial_.finish();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        exit_ = true;
    }
    workCv_.notify_all();
    for (std::thread& t : threads_)
        t.join();
}

//===----------------------------------------------------------------------===//
// Strategy kinds
//===----------------------------------------------------------------------===//

std::optional<StrategyKind>
parseStrategyKind(std::string_view name)
{
    if (name == "exhaustive")
        return StrategyKind::kExhaustive;
    if (name == "random")
        return StrategyKind::kRandom;
    if (name == "lhs")
        return StrategyKind::kLhs;
    if (name == "evolve")
        return StrategyKind::kEvolve;
    return std::nullopt;
}

std::string_view
strategyKindName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::kExhaustive:
        return "exhaustive";
      case StrategyKind::kRandom:
        return "random";
      case StrategyKind::kLhs:
        return "lhs";
      case StrategyKind::kEvolve:
        return "evolve";
    }
    HIDA_PANIC("unknown StrategyKind");
}

namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

/**
 * Stateless keyed randomness: every draw is a pure function of
 * (seed, iteration, counter) — never a thread id or a clock — so a
 * fixed seed reproduces the identical search at any worker count (the
 * PR 6 fault-injection determinism rule).
 */
uint64_t
keyedRand(uint64_t seed, uint64_t iteration, uint64_t counter)
{
    return hashMix(hashCombine(hashCombine(seed, iteration), counter));
}

/** Sampling-strategy budget: explicit, else 10% of the grid (min 1). */
size_t
resolveBudget(const DesignPointGrid& grid, size_t budget)
{
    size_t fallback = std::max<size_t>(1, grid.size() / 10);
    return std::min(budget == 0 ? fallback : budget, grid.size());
}

/** Every point, one batch, proposed in the configured PointOrder.
 * Under kGrayCode consecutive batch positions mutate exactly one
 * directive, so each worker's slice walks single-axis steps. */
class ExhaustiveStrategy : public SearchStrategy {
  public:
    ExhaustiveStrategy(const DesignPointGrid& grid, PointOrder order)
        : grid_(grid), order_(order)
    {}

    std::string_view name() const override { return "exhaustive"; }

    void
    propose(std::vector<size_t>& out) override
    {
        if (done_)
            return;
        done_ = true;
        size_t n = grid_.size();
        out.reserve(n);
        for (size_t pos = 0; pos < n; ++pos)
            out.push_back(grid_.orderedIndex(pos, order_));
    }

    void consume(const std::vector<StrategyResult>&) override {}

  private:
    const DesignPointGrid& grid_;
    PointOrder order_;
    bool done_ = false;
};

/** Visited bookkeeping + deterministic unvisited draws, shared by the
 * sampling strategies. */
class SampledStrategy : public SearchStrategy {
  protected:
    SampledStrategy(const DesignPointGrid& grid, uint64_t seed,
                    size_t budget)
        : grid_(grid), seed_(seed), budget_(resolveBudget(grid, budget)),
          visited_(grid.size(), 0)
    {}

    /** Mark @p idx visited; true when it was fresh. */
    bool
    visit(size_t idx)
    {
        if (visited_[idx])
            return false;
        visited_[idx] = 1;
        ++visitedCount_;
        return true;
    }

    bool isVisited(size_t idx) const { return visited_[idx] != 0; }

    /**
     * Deterministic unvisited draw: a few keyed random probes, then a
     * keyed-start linear scan (so the draw always succeeds while any
     * point is left). kNpos when the grid is exhausted.
     */
    size_t
    drawUnvisited(uint64_t iteration, uint64_t counter)
    {
        size_t n = grid_.size();
        if (visitedCount_ >= n)
            return kNpos;
        for (uint64_t attempt = 0; attempt < 16; ++attempt) {
            size_t idx = keyedRand(seed_, iteration,
                                   hashCombine(counter, attempt)) %
                         n;
            if (!visited_[idx])
                return idx;
        }
        size_t start = keyedRand(seed_, iteration, counter) % n;
        for (size_t k = 0; k < n; ++k) {
            size_t idx = (start + k) % n;
            if (!visited_[idx])
                return idx;
        }
        return kNpos;
    }

    /**
     * Append up to @p rows latin-hypercube samples: every axis is
     * stratified into @p rows slices whose order is an independent
     * keyed permutation, so each axis value appears proportionally
     * often across the sample. Collisions with visited points are
     * skipped (the caller tops up with drawUnvisited).
     */
    void
    lhsRows(size_t rows, uint64_t salt, std::vector<size_t>& out)
    {
        size_t axes = grid_.numAxes();
        if (axes == 0 || rows == 0)
            return;
        // Per-axis permutation of the strata (keyed Fisher-Yates).
        std::vector<std::vector<size_t>> perms(axes);
        for (size_t a = 0; a < axes; ++a) {
            std::vector<size_t>& perm = perms[a];
            perm.resize(rows);
            for (size_t j = 0; j < rows; ++j)
                perm[j] = j;
            for (size_t j = rows; j-- > 1;) {
                size_t k = keyedRand(seed_, hashCombine(salt, a), j) %
                           (j + 1);
                std::swap(perm[j], perm[k]);
            }
        }
        std::vector<size_t> coords(axes);
        for (size_t j = 0; j < rows; ++j) {
            for (size_t a = 0; a < axes; ++a) {
                size_t size = grid_.axis(a).values.size();
                coords[a] = perms[a][j] * size / rows;
            }
            size_t idx = grid_.encode(coords);
            if (visit(idx))
                out.push_back(idx);
        }
    }

    const DesignPointGrid& grid_;
    uint64_t seed_;
    size_t budget_;
    size_t proposedTotal_ = 0;

  private:
    std::vector<uint8_t> visited_;
    size_t visitedCount_ = 0;
};

/** Seeded uniform sampling without replacement, one batch. */
class RandomStrategy : public SampledStrategy {
  public:
    RandomStrategy(const DesignPointGrid& grid, uint64_t seed,
                   size_t budget)
        : SampledStrategy(grid, seed, budget)
    {}

    std::string_view name() const override { return "random"; }

    void
    propose(std::vector<size_t>& out) override
    {
        if (done_)
            return;
        done_ = true;
        for (size_t c = 0; c < budget_; ++c) {
            size_t idx = drawUnvisited(0, c);
            if (idx == kNpos)
                break;
            visit(idx);
            out.push_back(idx);
        }
        proposedTotal_ = out.size();
    }

    void consume(const std::vector<StrategyResult>&) override {}

  private:
    bool done_ = false;
};

/** Latin-hypercube sampling over the named axes, one batch. */
class LhsStrategy : public SampledStrategy {
  public:
    LhsStrategy(const DesignPointGrid& grid, uint64_t seed, size_t budget)
        : SampledStrategy(grid, seed, budget)
    {}

    std::string_view name() const override { return "lhs"; }

    void
    propose(std::vector<size_t>& out) override
    {
        if (done_)
            return;
        done_ = true;
        lhsRows(budget_, /*salt=*/0, out);
        // Stratum collisions mapped to an already-taken point: top up
        // with keyed random draws so the full budget is spent.
        for (size_t c = 0; out.size() < budget_; ++c) {
            size_t idx = drawUnvisited(1, c);
            if (idx == kNpos)
                break;
            visit(idx);
            out.push_back(idx);
        }
        proposedTotal_ = out.size();
    }

    void consume(const std::vector<StrategyResult>&) override {}

  private:
    bool done_ = false;
};

/**
 * Pareto-guided evolutionary explorer. Generation 0 scatters a
 * latin-hypercube seed (plus the two grid corners); every later
 * generation *expands* archive-front members that have not been
 * expanded yet: all their unvisited +/-1 single-axis neighbors, in
 * archive (cost) order — a Pareto local search that walks the front
 * staircase. Neighbor points share most of their directive
 * fingerprints, so they land in the warm node/schedule caches of the
 * persistent workers. When every front member is expanded the strategy
 * injects a small keyed batch of two-axis mutations and immigrants to
 * escape a locally-saturated (possibly disconnected) front, then
 * resumes expanding whatever that batch uncovers. Dominated points are
 * pruned from the parent pool on arrival (ParetoArchive::insert).
 */
class EvolveStrategy : public SampledStrategy {
  public:
    EvolveStrategy(const DesignPointGrid& grid, uint64_t seed,
                   size_t budget, double cost_limit)
        : SampledStrategy(grid, seed, budget), costLimit_(cost_limit)
    {
        initCount_ = std::min(budget_, std::max<size_t>(16, budget_ / 8));
        fillCap_ = std::max<size_t>(16, budget_ / 16);
        for (size_t a = 0; a < grid.numAxes(); ++a)
            if (grid.axis(a).values.size() > 1)
                mutableAxes_.push_back(a);
        // Small generations keep the walk reactive: every generation's
        // proposals are re-ranked against the freshest archive, so a
        // cap of one full line scan per generation beats wider batches
        // (measured on the LeNet sweep across genCap 16..60).
        genCap_ = std::max(lineScanSize() + 1, budget_ / 12);
        // Endgame length: the chain-completion tail wants roughly a
        // quarter of the budget — shorter tails strand proved chains,
        // longer ones displace the walk that finds the backbones.
        endgame_ = std::max(genCap_, budget_ / 4);
    }

    std::string_view name() const override { return "evolve"; }

    void
    propose(std::vector<size_t>& out) override
    {
        if (proposedTotal_ >= budget_)
            return;
        size_t want = budget_ - proposedTotal_;
        if (generation_ == 0)
            proposeSeed(std::min(want, initCount_), out);
        else
            proposeGeneration(want, out);
        proposedTotal_ += out.size();
        ++generation_;
    }

    void
    consume(const std::vector<StrategyResult>& results) override
    {
        for (const StrategyResult& r : results) {
            if (!r.ok)
                continue;
            if (costLimit_ > 0.0 && r.cost > costLimit_)
                continue;  // Infeasible: never a parent.
            // First-seen wins among exact objective ties: the walk
            // expands one design per QoR point. Twins go to a side
            // bench — their distinct neighborhoods can hide further
            // front points, and the dry-tier pass below picks them up
            // once every first-seen neighborhood is exhausted.
            bool tied = false;
            for (const ParetoSample& f : archive_.samples())
                if (f.cost == r.cost && f.value == r.value) {
                    tied = true;
                    break;
                }
            if (tied) {
                if (tieBench_.size() < kTieBenchCap)
                    tieBench_.push_back({r.index, r.cost, r.value});
                continue;
            }
            archive_.insert({r.index, r.cost, r.value});
        }
    }

    /** The non-dominated archive driving parent selection. */
    const ParetoArchive& archive() const { return archive_; }

  private:
    void
    proposeSeed(size_t want, std::vector<size_t>& out)
    {
        // The two grid corners (all-min / all-max factors) anchor the
        // front's extremes deterministically.
        size_t axes = grid_.numAxes();
        std::vector<size_t> coords(axes, 0);
        if (out.size() < want && visit(grid_.encode(coords)))
            out.push_back(grid_.encode(coords));
        for (size_t a = 0; a < axes; ++a)
            coords[a] = grid_.axis(a).values.size() - 1;
        size_t corner = grid_.encode(coords);
        if (out.size() < want && visit(corner))
            out.push_back(corner);
        // Axis lines through the min corner: every value of every axis
        // with the others at minimum — the cheapest probe of each
        // factor's marginal effect, and the foothold the up-walk needs
        // to climb single-factor-dominated fronts.
        std::fill(coords.begin(), coords.end(), 0);
        for (size_t a : mutableAxes_) {
            for (size_t v = 1;
                 v < grid_.axis(a).values.size() && out.size() < want; ++v) {
                coords[a] = v;
                size_t idx = grid_.encode(coords);
                if (visit(idx))
                    out.push_back(idx);
            }
            coords[a] = 0;
        }
        if (out.size() < want)
            lhsRows(want - out.size(), /*salt=*/0x5eed, out);
        for (size_t c = 0; out.size() < want; ++c) {
            size_t idx = drawUnvisited(0, hashCombine(0xf111, c));
            if (idx == kNpos)
                break;
            visit(idx);
            out.push_back(idx);
        }
    }

    /**
     * Zigzag priority over the cost-sorted front: cheapest, costliest,
     * second-cheapest, ... — under budget pressure both front ends get
     * explored instead of only the low-cost staircase.
     */
    static std::vector<size_t>
    zigzagOrder(size_t n)
    {
        std::vector<size_t> order;
        order.reserve(n);
        for (size_t lo = 0, hi = n; lo < hi;) {
            order.push_back(lo++);
            if (lo < hi)
                order.push_back(--hi);
        }
        return order;
    }

    void
    proposeGeneration(size_t want, std::vector<size_t>& out)
    {
        const std::vector<ParetoSample>& front = archive_.samples();
        size_t cap = std::min(want, genCap_);
        // Endgame: once the remaining budget drops to the last
        // generation or so, the archive is as mature as it will get —
        // stop exploring outward and spend the tail completing chains.
        // Real fronts carry "chains": the same backbone repeated at
        // every value of a weakly coupled axis, each rung slightly
        // cheaper and slightly slower than the next. When two archive
        // members differ only along one axis with near-equal value
        // (the chain evidence), probe every remaining value of that
        // axis. Run earlier, this displaces the staircase walk and the
        // line scans that discover the backbones in the first place —
        // measured on the LeNet sweep it costs more front points than
        // it recovers; as a tail pass it mops up the rungs the walk
        // proved but never descended.
        bool endgame = budget_ - proposedTotal_ <= endgame_;
        if (endgame) {
            extendChains(front, cap, out);
            if (!out.empty())
                return;
        }
        // Candidate populations. The front itself — one design per
        // QoR point (first seen) — leads every tier; the benched
        // twins (designs tied with a front point in objective space
        // but sitting elsewhere in the grid) follow *within* the same
        // tier. A twin's distinct neighborhood can hide further front
        // points, but expanding it is speculative — so a twin tier
        // runs only after the front's same tier is exhausted, and
        // always before the front's next costlier tier.
        std::vector<ParetoSample> twins;
        for (const ParetoSample& t : tieBench_) {
            bool live = true;
            for (const ParetoSample& f : front)
                if (dominates(f, t)) {
                    live = false;
                    break;
                }
            if (live)
                twins.push_back(t);
        }
        std::vector<size_t> order = zigzagOrder(front.size());
        std::vector<size_t> torder = zigzagOrder(twins.size());
        // Tiers run strictly: a generation descends to the next tier
        // only when every cheaper tier came up empty — expanding the
        // freshly found front next generation is a better use of the
        // budget than speculative wide neighborhoods.
        //
        // Tier 1: +1 single-axis up-steps. The feasible front of a
        // monotone design space (bigger factors -> more throughput,
        // more resources) is an upward staircase from the all-min
        // corner, and most consecutive staircase steps are
        // single-axis — the cheapest possible frontier advance. A
        // member is only expanded when its whole neighborhood fits
        // the generation's remaining ration, so a walk never gets
        // truncated mid-point.
        auto upFn = [this](size_t p, std::vector<size_t>& o) {
            expandUpSingles(p, o);
        };
        expandTier(front, order, cap, tier1Size(), expandedUp_, upFn,
                   out);
        if (!out.empty())
            return;  // Expand the fresh front next generation.
        expandTier(twins, torder, cap, tier1Size(), expandedUp_, upFn,
                   out);
        if (!out.empty())
            return;
        // Tier 2: full per-axis line scans — every other value of
        // every axis, one axis at a time. Jumps straight to the
        // minimum-utilization representative of an equal-throughput
        // plateau (e.g. trading a deep unroll on one loop for a wide
        // one on another), which +/-1 walks only reach through
        // dominated intermediates.
        auto scanFn = [this](size_t p, std::vector<size_t>& o) {
            expandLineScan(p, o);
        };
        expandTier(front, order, cap, lineScanSize(), expandedScan_,
                   scanFn, out);
        if (!out.empty())
            return;
        expandTier(twins, torder, cap, lineScanSize(), expandedScan_,
                   scanFn, out);
        if (!out.empty())
            return;
        // Tier 3: paired (+1,+1) diagonal steps jump the staircase's
        // two-factor risers single steps cannot reach.
        auto diagFn = [this](size_t p, std::vector<size_t>& o) {
            expandUpDiag(p, o);
        };
        expandTier(front, order, cap, tier2Size(), expandedDiag_,
                   diagFn, out);
        if (!out.empty())
            return;
        expandTier(twins, torder, cap, tier2Size(), expandedDiag_,
                   diagFn, out);
        if (!out.empty())
            return;
        // Tier 4: ordered (-1,+1) factor *swaps* between axis pairs —
        // re-balancing parallelism across layers one notch at a time.
        auto swapFn = [this](size_t p, std::vector<size_t>& o) {
            expandSwap(p, o);
        };
        expandTier(front, order, cap, tier4Size(), expandedSwap_,
                   swapFn, out);
        if (!out.empty())
            return;
        expandTier(twins, torder, cap, tier4Size(), expandedSwap_,
                   swapFn, out);
        if (!out.empty())
            return;
        // Tier 5: every neighborhood saturated — inject a small keyed
        // diversity batch (two-axis mutations of front members, every
        // 4th an immigrant), then resume expansion on whatever it
        // uncovers.
        size_t fill = std::min(cap, fillCap_);
        for (size_t c = 0; out.size() < fill; ++c) {
            size_t idx = kNpos;
            if (!front.empty() && c % 4 != 3) {
                const ParetoSample& parent = front[c % front.size()];
                for (uint64_t attempt = 0; attempt < 8 && idx == kNpos;
                     ++attempt)
                    idx = mutate(parent.index,
                                 hashCombine(c * 8, attempt));
            }
            if (idx == kNpos)
                idx = drawUnvisited(generation_, hashCombine(0x1111, c));
            if (idx == kNpos)
                break;
            visit(idx);
            out.push_back(idx);
        }
    }

    /** Worst-case probe count per single-axis expansion (tiers 1-2). */
    size_t
    tier1Size() const
    {
        return mutableAxes_.size();
    }

    /** Worst-case tier-4 probe count per expansion ((+1,+1) pairs). */
    size_t
    tier2Size() const
    {
        size_t m = mutableAxes_.size();
        return m * (m - 1) / 2;
    }

    /** Worst-case tier-3 probe count per expansion (line scans). */
    size_t
    lineScanSize() const
    {
        size_t total = 0;
        for (size_t a : mutableAxes_)
            total += grid_.axis(a).values.size() - 1;
        return total;
    }

    /** Worst-case tier-4 probe count per expansion (ordered (-1,+1)
     * pairs). */
    size_t
    tier4Size() const
    {
        size_t m = mutableAxes_.size();
        return m * (m - 1);
    }

    /**
     * One expansion tier: expand every not-yet-expanded front member
     * (zigzag priority) whose worst-case neighborhood still fits the
     * generation's ration.
     */
    template <typename ExpandFn>
    void
    expandTier(const std::vector<ParetoSample>& front,
               const std::vector<size_t>& order, size_t cap,
               size_t worst_case, std::unordered_set<size_t>& expanded,
               ExpandFn expand, std::vector<size_t>& out)
    {
        for (size_t oi : order) {
            const ParetoSample& s = front[oi];
            if (out.size() + worst_case > cap)
                break;
            if (!expanded.insert(s.index).second)
                continue;
            expand(s.index, out);
        }
    }

    /** Visit-and-append the point at coords_ if it is fresh. */
    void
    tryEmit(std::vector<size_t>& out)
    {
        size_t idx = grid_.encode(coords_);
        if (visit(idx))
            out.push_back(idx);
    }

    /** +1 single-axis steps. */
    void
    expandUpSingles(size_t parent_index, std::vector<size_t>& out)
    {
        grid_.decodeValueIndices(parent_index, coords_);
        for (size_t a : mutableAxes_) {
            if (coords_[a] + 1 >= grid_.axis(a).values.size())
                continue;
            ++coords_[a];
            tryEmit(out);
            --coords_[a];
        }
    }

    /**
     * Tier-2 chain completion: for every front member that has a front
     * sibling differing only along one axis, probe every remaining
     * value of that axis. No expanded-set — chain evidence can appear
     * in any later generation, and re-checks cost nothing once the
     * probes are visited.
     */
    void
    extendChains(const std::vector<ParetoSample>& front, size_t cap,
                 std::vector<size_t>& out)
    {
        std::unordered_map<size_t, double> members;
        members.reserve(front.size());
        for (const ParetoSample& s : front)
            members.emplace(s.index, s.value);
        for (size_t oi : zigzagOrder(front.size())) {
            if (out.size() >= cap)
                break;
            double value = front[oi].value;
            grid_.decodeValueIndices(front[oi].index, coords_);
            for (size_t a : mutableAxes_) {
                size_t orig = coords_[a];
                bool evidence = false;
                for (size_t v = 0; v < grid_.axis(a).values.size();
                     ++v) {
                    if (v == orig)
                        continue;
                    coords_[a] = v;
                    auto it = members.find(grid_.encode(coords_));
                    // A weakly coupled axis moves the value by a hair;
                    // a strongly coupled one moves it by percents.
                    if (it != members.end() &&
                        std::abs(it->second - value) <=
                            0.005 * std::abs(value)) {
                        evidence = true;
                        break;
                    }
                }
                coords_[a] = orig;
                if (!evidence)
                    continue;
                for (size_t v = 0; v < grid_.axis(a).values.size() &&
                                   out.size() < cap;
                     ++v) {
                    if (v == orig)
                        continue;
                    coords_[a] = v;
                    tryEmit(out);
                }
                coords_[a] = orig;
            }
        }
    }

    /** (+1,+1) axis-pair diagonals. */
    void
    expandUpDiag(size_t parent_index, std::vector<size_t>& out)
    {
        grid_.decodeValueIndices(parent_index, coords_);
        for (size_t i = 0; i < mutableAxes_.size(); ++i) {
            size_t a = mutableAxes_[i];
            if (coords_[a] + 1 >= grid_.axis(a).values.size())
                continue;
            ++coords_[a];
            for (size_t j = i + 1; j < mutableAxes_.size(); ++j) {
                size_t b = mutableAxes_[j];
                if (coords_[b] + 1 >= grid_.axis(b).values.size())
                    continue;
                ++coords_[b];
                tryEmit(out);
                --coords_[b];
            }
            --coords_[a];
        }
    }

    /** Full per-axis line scans: every other value of every axis. */
    void
    expandLineScan(size_t parent_index, std::vector<size_t>& out)
    {
        grid_.decodeValueIndices(parent_index, coords_);
        for (size_t a : mutableAxes_) {
            size_t orig = coords_[a];
            for (size_t v = 0; v < grid_.axis(a).values.size(); ++v) {
                if (v == orig)
                    continue;
                coords_[a] = v;
                tryEmit(out);
            }
            coords_[a] = orig;
        }
    }

    /** Ordered (-1,+1) axis-pair swaps. */
    void
    expandSwap(size_t parent_index, std::vector<size_t>& out)
    {
        grid_.decodeValueIndices(parent_index, coords_);
        for (size_t i = 0; i < mutableAxes_.size(); ++i) {
            size_t a = mutableAxes_[i];
            if (coords_[a] == 0)
                continue;
            --coords_[a];
            for (size_t j = 0; j < mutableAxes_.size(); ++j) {
                if (j == i)
                    continue;
                size_t b = mutableAxes_[j];
                if (coords_[b] + 1 >= grid_.axis(b).values.size())
                    continue;
                ++coords_[b];
                tryEmit(out);
                --coords_[b];
            }
            ++coords_[a];
        }
    }

    /**
     * Step 1-2 axes of @p parent_index to neighboring values (keyed on
     * (seed, generation, salt)). kNpos when the mutant is already
     * visited or no axis can move.
     */
    size_t
    mutate(size_t parent_index, uint64_t salt)
    {
        if (mutableAxes_.empty())
            return kNpos;
        grid_.decodeValueIndices(parent_index, coords_);
        uint64_t r = keyedRand(seed_, generation_, salt);
        size_t naxes = 1 + ((r >> 8) & 1);
        bool moved = false;
        for (size_t k = 0; k < naxes; ++k) {
            uint64_t r2 = keyedRand(seed_, generation_,
                                    hashCombine(salt, 17 + k));
            size_t a = mutableAxes_[r2 % mutableAxes_.size()];
            size_t size = grid_.axis(a).values.size();
            bool up = ((r2 >> 16) & 1) != 0;
            if (up && coords_[a] + 1 < size) {
                ++coords_[a];
                moved = true;
            } else if (!up && coords_[a] > 0) {
                --coords_[a];
                moved = true;
            } else if (up && coords_[a] > 0) {
                --coords_[a];  // Bounce off the top boundary.
                moved = true;
            } else if (!up && coords_[a] + 1 < size) {
                ++coords_[a];  // Bounce off the bottom boundary.
                moved = true;
            }
        }
        if (!moved)
            return kNpos;
        size_t idx = grid_.encode(coords_);
        return isVisited(idx) ? kNpos : idx;
    }

    double costLimit_;
    size_t initCount_;
    size_t fillCap_;
    size_t genCap_;
    size_t endgame_;
    /// Twin-bench bound: ties beyond this are dropped (a front this
    /// degenerate will not be rescued by more twins).
    static constexpr size_t kTieBenchCap = 128;
    std::vector<ParetoSample> tieBench_;  ///< Objective-tied twins.
    uint64_t generation_ = 0;
    std::vector<size_t> mutableAxes_;
    std::vector<size_t> coords_;  ///< Scratch for mutate()/expansion.
    std::unordered_set<size_t> expandedUp_;    ///< Tier-1 expansions done.
    std::unordered_set<size_t> expandedScan_;  ///< Tier-3 expansions done.
    std::unordered_set<size_t> expandedDiag_;  ///< Tier-4 expansions done.
    std::unordered_set<size_t> expandedSwap_;  ///< Tier-5 expansions done.
    ParetoArchive archive_;
};

} // namespace

std::unique_ptr<SearchStrategy>
makeStrategy(const DesignPointGrid& grid, const StrategyOptions& options)
{
    switch (options.kind) {
      case StrategyKind::kExhaustive:
        return std::make_unique<ExhaustiveStrategy>(grid, options.order);
      case StrategyKind::kRandom:
        return std::make_unique<RandomStrategy>(grid, options.seed,
                                                options.budget);
      case StrategyKind::kLhs:
        return std::make_unique<LhsStrategy>(grid, options.seed,
                                             options.budget);
      case StrategyKind::kEvolve:
        return std::make_unique<EvolveStrategy>(grid, options.seed,
                                                options.budget,
                                                options.costLimit);
    }
    HIDA_PANIC("unknown StrategyKind");
}

StrategyOptions
strategyOptionsFromEnv()
{
    StrategyOptions options;
    if (const char* env = std::getenv("HIDA_DSE_STRATEGY")) {
        if (*env != '\0') {
            std::optional<StrategyKind> kind = parseStrategyKind(env);
            if (!kind)
                HIDA_FATAL("unknown HIDA_DSE_STRATEGY '", env,
                           "': expected exhaustive|random|lhs|evolve");
            options.kind = *kind;
        }
    }
    // envUint (src/support/env.h) fatals on garbage, signs, trailing
    // characters and 64-bit overflow — an overflowed HIDA_DSE_SEED used
    // to clamp silently to ULLONG_MAX.
    options.seed = envUint("HIDA_DSE_SEED", options.seed);
    options.budget = envUint("HIDA_DSE_BUDGET", 0);
    options.order = sweepScheduleFromEnv().order;
    return options;
}

} // namespace hida
