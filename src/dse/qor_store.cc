#include "src/dse/qor_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/support/fault_inject.h"
#include "src/support/utils.h"

namespace hida {

namespace {

/** Format: magic+version pin the record layout; bump on any change. */
constexpr char kMagic[8] = {'H', 'I', 'D', 'A', 'Q', 'S', 'T', '1'};
constexpr uint32_t kVersion = 1;

struct Header {
    char magic[8];
    uint32_t version;
    uint32_t payloadSize;
    uint64_t contentTag;
};
static_assert(sizeof(Header) == 24, "qor store header layout drifted");

/** Checksum over one record's (key, payload bytes). */
uint64_t
recordChecksum(uint64_t key, const uint8_t* payload, size_t payload_size)
{
    uint64_t h = hashMix(key);
    for (size_t i = 0; i < payload_size; ++i)
        h = hashCombine(h, payload[i]);
    return h;
}

} // namespace

std::optional<Diagnostic>
QorStore::open(std::string path, uint64_t content_tag, size_t payload_size,
               size_t batch_records)
{
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = std::move(path);
    contentTag_ = content_tag;
    payloadSize_ = payload_size;
    batchRecords_ = batch_records == 0 ? 1 : batch_records;
    dirtySinceFlush_ = 0;
    stats_ = Stats();
    records_.clear();
    if (path_.empty())
        return std::nullopt;  // in-memory memo only

    // A crash between snapshot write and rename orphans "<path>.tmp";
    // <path> is always the trusted copy (rename is atomic).
    std::remove((path_ + ".tmp").c_str());

    std::FILE* file = std::fopen(path_.c_str(), "rb");
    if (file == nullptr)
        return std::nullopt;  // fresh store

    Header header;
    bool header_ok =
        std::fread(&header, sizeof(header), 1, file) == 1 &&
        std::memcmp(header.magic, kMagic, sizeof(kMagic)) == 0 &&
        header.version == kVersion &&
        header.payloadSize == static_cast<uint32_t>(payloadSize_) &&
        header.contentTag == contentTag_;
    if (!header_ok) {
        std::fclose(file);
        stats_.headerMismatch = true;
        return Diagnostic(
            ErrorCode::kStoreCorrupt,
            strCat("qor store '", path_,
                   "' is foreign or from an incompatible version; treating "
                   "all entries as misses"),
            "qor store");
    }

    // Adopt intact records; stop at the first checksum/short-read
    // failure. Everything after a corrupt record is untrusted (the file
    // is written as one atomic snapshot, so a bad middle means damage,
    // not a benign torn tail) — dropped records simply become misses.
    std::vector<uint8_t> payload(payloadSize_);
    for (;;) {
        uint64_t key = 0;
        if (std::fread(&key, sizeof(key), 1, file) != 1)
            break;  // clean EOF
        uint64_t checksum = 0;
        if (std::fread(payload.data(), 1, payloadSize_, file) !=
                payloadSize_ ||
            std::fread(&checksum, sizeof(checksum), 1, file) != 1) {
            ++stats_.droppedCorrupt;
            break;
        }
        if (recordChecksum(key, payload.data(), payloadSize_) != checksum) {
            ++stats_.droppedCorrupt;
            break;
        }
        records_[key] = payload;
        ++stats_.restored;
    }
    std::fclose(file);

    if (stats_.droppedCorrupt > 0)
        return Diagnostic(
            ErrorCode::kStoreCorrupt,
            strCat("qor store '", path_, "' has corrupt records; kept ",
                   stats_.restored, " intact entries and dropped the rest"),
            "qor store");
    return std::nullopt;
}

size_t
QorStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

QorStore::Stats
QorStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

bool
QorStore::lookup(uint64_t key, void* out)
{
    // The injection verdict depends only on (seed, site, FaultScope
    // key), so a forced miss lands on the same points at any thread
    // count — and a miss only costs a recompute of the same value.
    bool injected = shouldInjectFault(FaultSite::kStore);
    std::lock_guard<std::mutex> lock(mutex_);
    if (injected) {
        ++stats_.misses;
        ++stats_.injectedMisses;
        return false;
    }
    auto it = records_.find(key);
    if (it == records_.end()) {
        ++stats_.misses;
        return false;
    }
    std::memcpy(out, it->second.data(), payloadSize_);
    ++stats_.hits;
    return true;
}

void
QorStore::insert(uint64_t key, const void* payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_[key].assign(static_cast<const uint8_t*>(payload),
                         static_cast<const uint8_t*>(payload) + payloadSize_);
    // No inline flush: request threads only touch the map; the owner's
    // housekeeping thread drains the dirty count via maybeFlush().
    ++dirtySinceFlush_;
}

bool
QorStore::needsFlush() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return !path_.empty() && dirtySinceFlush_ >= batchRecords_;
}

void
QorStore::maybeFlush()
{
    if (needsFlush())
        flush();
}

void
QorStore::flush()
{
    // One snapshot writer at a time; concurrent flush() calls queue
    // here instead of racing on the .tmp file.
    std::lock_guard<std::mutex> flush_lock(flushMutex_);

    // Copy the records under the map lock, write outside it: lookups
    // and inserts from request threads proceed during the disk I/O.
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> snapshot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (path_.empty() || dirtySinceFlush_ == 0)
            return;
        snapshot.assign(records_.begin(), records_.end());
        // Inserts landing after this copy re-raise the count and reach
        // disk on the next flush.
        dirtySinceFlush_ = 0;
    }

    // Whole-file snapshot + atomic rename, records in key order so the
    // same contents always produce the same bytes on disk.
    std::sort(snapshot.begin(), snapshot.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::string tmp = path_ + ".tmp";
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) {
        warn(strCat("qor store: cannot write '", tmp, "'"));
        std::lock_guard<std::mutex> lock(mutex_);
        ++dirtySinceFlush_;  // retry on a later flush
        return;
    }
    Header header;
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.version = kVersion;
    header.payloadSize = static_cast<uint32_t>(payloadSize_);
    header.contentTag = contentTag_;
    bool ok = std::fwrite(&header, sizeof(header), 1, file) == 1;

    for (const auto& [key, payload] : snapshot) {
        uint64_t checksum = recordChecksum(key, payload.data(), payloadSize_);
        ok = ok && std::fwrite(&key, sizeof(key), 1, file) == 1 &&
             std::fwrite(payload.data(), 1, payloadSize_, file) ==
                 payloadSize_ &&
             std::fwrite(&checksum, sizeof(checksum), 1, file) == 1;
    }
    ok = std::fclose(file) == 0 && ok;
    if (!ok || std::rename(tmp.c_str(), path_.c_str()) != 0) {
        warn(strCat("qor store: flush to '", path_, "' failed"));
        std::remove(tmp.c_str());
        std::lock_guard<std::mutex> lock(mutex_);
        ++dirtySinceFlush_;  // retry on a later flush
    }
}

} // namespace hida
