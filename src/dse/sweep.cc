#include "src/dse/sweep.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <thread>

#include "src/ir/verifier.h"
#include "src/support/env.h"

namespace hida {

std::optional<Diagnostic>
verifySweepPrototype(ModuleOp prototype)
{
    // The setup fault scope lets HIDA_FAULT_INJECT force this path.
    FaultScope scope(kFaultSetupKey);
    return verifyToDiagnostic(prototype.op(), "sweep prototype");
}

unsigned
dseHardwareConcurrency()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
dseThreadCount()
{
    const char* env = std::getenv("HIDA_BENCH_THREADS");
    if (env == nullptr || *env == '\0')
        return dseHardwareConcurrency();
    // envUint already rejects garbage, signs, trailing characters and
    // 64-bit overflow with exit kFatalExitCode (the old atoi parse
    // silently fell back on "abc" and truncated "4x" to 4).
    uint64_t value = envUint("HIDA_BENCH_THREADS", 0);
    if (value == 0 || value > std::numeric_limits<unsigned>::max())
        HIDA_FATAL("invalid HIDA_BENCH_THREADS '", env,
                   "': expected a positive worker count");
    return static_cast<unsigned>(value);
}

} // namespace hida
