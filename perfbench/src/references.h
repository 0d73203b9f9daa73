#ifndef HIDA_PERFBENCH_REFERENCES_H
#define HIDA_PERFBENCH_REFERENCES_H

/**
 * @file
 * Pinned output digests — *regression* references. They were produced by
 * the compiler itself (at the commit that introduced this benchmark), so
 * they prove that an optimization left output unchanged, not that the
 * output is right: the QoR estimator is an analytic model that has not
 * been validated against hardware. Independent references (the golden
 * QoR tables under tests/golden/, the src/interp oracle, direct
 * CloneSweepWorker evaluation) are used wherever they exist.
 *
 * Regenerate after an intentional model change with
 *   .bench_build/perfbench/hida_perfbench --root . --print-references
 * and paste the output into references.cc.
 */

#include <cstdint>
#include <string>

namespace perfbench {

struct PinnedDigest {
    const char* key;
    uint64_t digest;
};

/** Exhaustive sweep digest per prototype, keyed "df_b<batch>" /
 * "nodf_b<batch>" (sweepDigest of the 2,400-point grid). */
extern const PinnedDigest kLenetSweepDigests[];
/** Per-compile digest, keyed "<program>/<flow>" (QoR line + emitted
 * code). */
extern const PinnedDigest kZooDigests[];

/** Digest pinned for @p key in a table, or nullptr. */
const uint64_t* findPinned(const PinnedDigest* table, const std::string& key);

} // namespace perfbench

#endif // HIDA_PERFBENCH_REFERENCES_H
