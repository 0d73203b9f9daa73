#ifndef HIDA_IR_VERIFIER_H
#define HIDA_IR_VERIFIER_H

/**
 * @file
 * Structural IR verifier: SSA dominance, isolation (IsolatedFromAbove),
 * terminator placement, plus per-op hooks from the OpRegistry.
 */

#include <optional>
#include <string>

#include "src/support/diagnostics.h"

namespace hida {

class Operation;

/**
 * Verify @p root and everything nested inside it.
 * @return first error found, or std::nullopt when the IR is valid.
 */
std::optional<std::string> verify(Operation* root);

/**
 * Recoverable verification: returns a kVerifyFailed Diagnostic instead
 * of aborting, so a sweep can reject a bad prototype (or a bad point)
 * as data before any worker starts. Honors the FaultSite::kVerifier
 * injection hook (src/support/fault_inject.h). @p what names the
 * subject in the diagnostic path (e.g. "sweep prototype").
 */
std::optional<Diagnostic> verifyToDiagnostic(Operation* root,
                                             const std::string& what = "");

} // namespace hida

#endif // HIDA_IR_VERIFIER_H
