#ifndef HIDA_DSE_QOR_STORE_H
#define HIDA_DSE_QOR_STORE_H

/**
 * @file
 * Crash-safe persistent QoR store: a fingerprint-keyed on-disk memo of
 * evaluated design-point results that outlives any single process. It
 * is the repository's one durable record format, used two ways:
 *  - DSE service memo (HIDA_QOR_STORE, see docs/service.md): keys are
 *    caller-composed process-independent fingerprints (e.g.
 *    hashCombine(model hash, pointFingerprint)), so a cold service, a
 *    CI run or another tenant warm-starts from results a previous
 *    process computed.
 *  - Sweep checkpoint (SweepLimits::checkpoint, HIDA_SWEEP_JOURNAL):
 *    content tag grid.contentHash(), key grid.pointFingerprint(i),
 *    payload the sweep's result type. The fingerprint folds in the
 *    grid hash and the index, so a record can only restore the exact
 *    point that wrote it.
 *
 * Durability model:
 *  - Whole-file snapshots to "<path>.tmp" + atomic rename; a stale
 *    .tmp orphaned by a crash is removed on open.
 *  - Versioned header pins magic/version/payload size/content tag; the
 *    content tag is a caller-chosen process-independent hash of the
 *    payload *meaning* (schema + estimator semantics version, or the
 *    grid of a sweep checkpoint), so a store can never poison a reader
 *    that interprets payloads differently.
 *  - Every record carries a checksum. Corrupt or foreign bytes are
 *    degraded to misses (reported as recoverable kStoreCorrupt
 *    Diagnostics) and never trusted — the worst a damaged store can do
 *    is force recomputation.
 *
 * Fault injection: lookup() is a FaultSite::kStore site — under
 * HIDA_FAULT_INJECT=store:seed:rate a deterministic subset of lookups
 * (keyed on the thread's FaultScope key, i.e. the grid point index) is
 * forced to miss, exercising the recompute path without changing
 * results. Sites fire only under an active FaultScope; the sweep
 * driver looks checkpoints up before entering the point's scope.
 *
 * Thread safety: all methods after open() are safe to call from any
 * thread — service worker pools, concurrent requests and sweep workers
 * share a store by design. The record map is serialized by one
 * internal mutex; flush() snapshots the records under that mutex but
 * performs the file I/O *outside* it (a second flush mutex serializes
 * writers), so lookups and inserts never stall behind disk. insert()
 * itself never flushes: it only accrues the dirty count, and the owner
 * drains it — the DSE service's housekeeping thread calls maybeFlush()
 * on its tick, a sweep worker calls it after each insert. open()
 * itself is driver-thread only.
 */

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/support/diagnostics.h"

namespace hida {

class QorStore {
  public:
    /** Running counters; hits/misses are monotone across requests. */
    struct Stats {
        size_t restored = 0;        ///< Intact records adopted on open.
        size_t droppedCorrupt = 0;  ///< Checksum/short-read records dropped.
        bool headerMismatch = false;  ///< Foreign/old file ignored on open.
        size_t hits = 0;            ///< lookup() served from memory.
        size_t misses = 0;          ///< lookup() absent (incl. injected).
        size_t injectedMisses = 0;  ///< Misses forced by FaultSite::kStore.
    };

    QorStore() = default;
    QorStore(const QorStore&) = delete;
    QorStore& operator=(const QorStore&) = delete;

    /**
     * Bind to @p path with @p content_tag (process-independent payload
     * schema hash) and @p payload_size bytes per record, then adopt
     * whatever a previous process left there. Returns a *recoverable*
     * kStoreCorrupt Diagnostic when the file was foreign or had corrupt
     * records — the store is usable either way (bad bytes become
     * misses; the next flush rewrites a clean snapshot). @p
     * batch_records is the flush batching grain: needsFlush() turns
     * true once that many records accumulated since the last snapshot.
     * An empty @p path leaves the store disk-less (pure in-memory
     * memo; every method still works).
     *
     * Driver-thread only, before workers share the store.
     */
    std::optional<Diagnostic> open(std::string path, uint64_t content_tag,
                                   size_t payload_size,
                                   size_t batch_records = 64);

    size_t payloadSize() const { return payloadSize_; }

    /** Number of records currently held (adopted + inserted). */
    size_t size() const;

    /** Counter snapshot (copied under the lock). */
    Stats stats() const;

    /**
     * Copy the stored payload for @p key into @p out (payloadSize
     * bytes). A miss — absent key, or a deterministic FaultSite::kStore
     * injection — returns false; the caller recomputes and insert()s.
     */
    bool lookup(uint64_t key, void* out);

    /** Memoize one computed payload. Never performs I/O — the dirty
     * count accrues until some thread drains it via maybeFlush() /
     * flush(), so request threads pay a map insert and nothing else. */
    void insert(uint64_t key, const void* payload);

    /** True once batch_records inserts accumulated since the last
     * snapshot — the housekeeping thread's cheap flush poll. */
    bool needsFlush() const;

    /** flush() iff needsFlush(). */
    void maybeFlush();

    /** Snapshot all records to disk (write temp + rename). The records
     * map is only locked while copying the snapshot; the file write
     * happens outside it, serialized against other flushers. */
    void flush();

  private:
    mutable std::mutex mutex_;
    /** Serializes snapshot writers; never held together with mutex_
     * except briefly inside flush() (flushMutex_ -> mutex_ order). */
    std::mutex flushMutex_;
    std::string path_;
    uint64_t contentTag_ = 0;
    size_t payloadSize_ = 0;
    size_t batchRecords_ = 64;
    size_t dirtySinceFlush_ = 0;
    Stats stats_;
    std::unordered_map<uint64_t, std::vector<uint8_t>> records_;
};

} // namespace hida

#endif // HIDA_DSE_QOR_STORE_H
