#include "src/support/fault_inject.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "src/support/utils.h"

namespace hida {

namespace {

/** Process-wide config; the atomic flag is the disabled fast path. */
std::atomic<bool> g_enabled{false};
std::mutex g_config_mutex;
FaultConfig g_config;
std::once_flag g_env_once;

thread_local uint64_t t_fault_key = 0;
thread_local bool t_fault_active = false;

void
loadEnvConfig()
{
    const char* env = std::getenv("HIDA_FAULT_INJECT");
    if (env == nullptr || *env == '\0')
        return;
    if (auto config = parseFaultConfig(env)) {
        std::lock_guard<std::mutex> lock(g_config_mutex);
        g_config = *config;
        g_enabled.store(g_config.enabled, std::memory_order_release);
    } else {
        warn(strCat("ignoring malformed HIDA_FAULT_INJECT spec '", env,
                    "' (want kind:seed:rate)"));
    }
}

const char*
siteName(FaultSite site)
{
    switch (site) {
      case FaultSite::kEstimator:
        return "estimator";
      case FaultSite::kPass:
        return "pass";
      case FaultSite::kVerifier:
        return "verifier";
      case FaultSite::kStore:
        return "store";
      case FaultSite::kService:
        return "service";
    }
    return "?";
}

} // namespace

std::optional<FaultConfig>
parseFaultConfig(const std::string& spec)
{
    size_t c1 = spec.find(':');
    size_t c2 = c1 == std::string::npos ? std::string::npos
                                        : spec.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos)
        return std::nullopt;
    std::string kind = spec.substr(0, c1);
    std::string seed_str = spec.substr(c1 + 1, c2 - c1 - 1);
    std::string rate_str = spec.substr(c2 + 1);

    FaultConfig config;
    if (kind == "estimator")
        config.siteMask = faultSiteBit(FaultSite::kEstimator);
    else if (kind == "pass")
        config.siteMask = faultSiteBit(FaultSite::kPass);
    else if (kind == "verifier")
        config.siteMask = faultSiteBit(FaultSite::kVerifier);
    else if (kind == "store")
        config.siteMask = faultSiteBit(FaultSite::kStore);
    else if (kind == "service")
        config.siteMask = faultSiteBit(FaultSite::kService);
    else if (kind == "any")
        config.siteMask = faultSiteBit(FaultSite::kEstimator) |
                          faultSiteBit(FaultSite::kPass) |
                          faultSiteBit(FaultSite::kVerifier) |
                          faultSiteBit(FaultSite::kStore) |
                          faultSiteBit(FaultSite::kService);
    else
        return std::nullopt;

    char* end = nullptr;
    config.seed = std::strtoull(seed_str.c_str(), &end, 10);
    if (end == seed_str.c_str() || *end != '\0')
        return std::nullopt;
    end = nullptr;
    config.rate = std::strtod(rate_str.c_str(), &end);
    if (end == rate_str.c_str() || *end != '\0' || config.rate < 0.0 ||
        config.rate > 1.0)
        return std::nullopt;
    config.enabled = config.rate > 0.0 && config.siteMask != 0;
    return config;
}

void
setFaultConfig(const FaultConfig& config)
{
    // Ensure the env is consumed first so a later first-use load cannot
    // overwrite an explicit test configuration.
    std::call_once(g_env_once, loadEnvConfig);
    std::lock_guard<std::mutex> lock(g_config_mutex);
    g_config = config;
    g_enabled.store(config.enabled && config.siteMask != 0 &&
                        config.rate > 0.0,
                    std::memory_order_release);
}

FaultScope::FaultScope(uint64_t key)
    : prevKey_(t_fault_key), prevActive_(t_fault_active)
{
    t_fault_key = key;
    t_fault_active = true;
}

FaultScope::~FaultScope()
{
    t_fault_key = prevKey_;
    t_fault_active = prevActive_;
}

bool
shouldInjectFault(FaultSite site)
{
    std::call_once(g_env_once, loadEnvConfig);
    if (!g_enabled.load(std::memory_order_acquire))
        return false;
    if (!t_fault_active)
        return false;
    FaultConfig config;
    {
        std::lock_guard<std::mutex> lock(g_config_mutex);
        config = g_config;
    }
    if ((config.siteMask & faultSiteBit(site)) == 0)
        return false;
    // Verdict depends only on (seed, site, key): thread count, shard
    // boundaries and timing can never move an injected failure.
    uint64_t h = hashCombine(hashMix(config.seed),
                             hashCombine(static_cast<uint64_t>(site) + 1,
                                         hashMix(t_fault_key)));
    // Top 53 bits -> uniform double in [0, 1).
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < config.rate;
}

std::optional<Diagnostic>
maybeInjectFault(FaultSite site, const std::string& where)
{
    if (!shouldInjectFault(site))
        return std::nullopt;
    Diagnostic diag(ErrorCode::kFaultInjected,
                    strCat("injected ", siteName(site), " fault (key ",
                           t_fault_key, ")"),
                    where);
    return diag;
}

} // namespace hida
