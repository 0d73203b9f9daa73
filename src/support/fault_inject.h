#ifndef HIDA_SUPPORT_FAULT_INJECT_H
#define HIDA_SUPPORT_FAULT_INJECT_H

/**
 * @file
 * Deterministic fault-injection harness: forces recoverable failures at
 * seeded points so every recovery path of the resilient sweep engine
 * (src/dse/sweep.h) is exercised by tests and chaos runs — not just by
 * lucky crashes.
 *
 * Configuration comes from the HIDA_FAULT_INJECT environment variable
 * ("kind:seed:rate", e.g. "estimator:42:0.01", kind one of
 * estimator|pass|verifier|store|service|any) or programmatically via
 * setFaultConfig()
 * in tests. Injection is OFF by default and the disabled fast path is a
 * single relaxed atomic load, so instrumented hot paths stay free.
 *
 * Determinism contract: whether a site fires depends only on
 * (seed, site, key) — the key is the *grid point index* installed by
 * the sweep via FaultScope — never on thread count, shard boundaries or
 * timing. The same HIDA_FAULT_INJECT therefore fails the exact same
 * points at 1, 2 or N workers, which is what lets tests assert that
 * surviving points are bit-identical to a clean run.
 */

#include <cstdint>
#include <optional>
#include <string>

#include "src/support/diagnostics.h"

namespace hida {

/** Instrumented failure sites. */
enum class FaultSite : uint8_t {
    kEstimator = 0,  ///< QorEstimator::estimateFuncChecked entry.
    kPass = 1,       ///< Pass::runChecked entry.
    kVerifier = 2,   ///< verifyToDiagnostic entry.
    kStore = 3,      ///< QorStore lookup/insert entry (forces a miss).
    kService = 4,    ///< Service request execution (forces a retryable
                     ///  request-level failure).
};

/** Bit for @p site in FaultConfig::siteMask. */
inline constexpr uint32_t
faultSiteBit(FaultSite site)
{
    return 1u << static_cast<unsigned>(site);
}

struct FaultConfig {
    bool enabled = false;
    uint32_t siteMask = 0;  ///< OR of faultSiteBit(); "any" sets all.
    uint64_t seed = 0;
    double rate = 0.0;  ///< Per-(site, key) failure probability in [0, 1].
};

/**
 * Parse "kind:seed:rate". Returns std::nullopt (and leaves injection
 * off) on malformed input — a chaos knob must never break a clean run.
 */
std::optional<FaultConfig> parseFaultConfig(const std::string& spec);

/** Install @p config process-wide (tests). Thread-safe vs. shouldInject
 * reads, but configure before spawning sweep workers for sane runs. */
void setFaultConfig(const FaultConfig& config);

/**
 * Installs this thread's fault key (the sweep point index) for the
 * dynamic extent of one point evaluation. Sites fire only under an
 * active scope, so prototype builds and setup code are never hit
 * unless they opt in with their own scope.
 */
class FaultScope {
  public:
    explicit FaultScope(uint64_t key);
    ~FaultScope();
    FaultScope(const FaultScope&) = delete;
    FaultScope& operator=(const FaultScope&) = delete;

  private:
    uint64_t prevKey_;
    bool prevActive_;
};

/** Key reserved for pre-sweep setup work (prototype verification). */
inline constexpr uint64_t kFaultSetupKey = ~uint64_t{0};

/**
 * Deterministic verdict: does @p site fire for this thread's active
 * fault key? False when injection is disabled, the site is not
 * selected, or no FaultScope is active.
 */
bool shouldInjectFault(FaultSite site);

/**
 * shouldInjectFault + a ready-made kFaultInjected diagnostic naming the
 * site and @p where. The one-liner instrumented sites call.
 */
std::optional<Diagnostic> maybeInjectFault(FaultSite site,
                                           const std::string& where);

} // namespace hida

#endif // HIDA_SUPPORT_FAULT_INJECT_H
