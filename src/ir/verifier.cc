#include "src/ir/verifier.h"

#include "src/ir/operation.h"
#include "src/ir/registry.h"
#include "src/support/diagnostics.h"
#include "src/support/fault_inject.h"

namespace hida {

namespace {

/** True when @p value is visible at (i.e. dominates) @p user. */
bool
dominates(Value* value, Operation* user)
{
    // Find the ancestor chain of the user up to (not including) top level.
    if (value->isBlockArgument()) {
        // Visible if the user is nested inside the block that owns the arg.
        Block* owner = value->ownerBlock();
        for (Operation* p = user; p != nullptr; p = p->parentOp())
            if (p->block() == owner)
                return true;
        return false;
    }
    Operation* def = value->definingOp();
    // Hoist user until it shares a block with def, then compare positions.
    for (Operation* p = user; p != nullptr; p = p->parentOp()) {
        if (p->block() == def->block())
            return def == p ? false : def->isBeforeInBlock(p);
    }
    return false;
}

std::optional<std::string>
verifyOp(Operation* op, Operation* enclosing_isolated)
{
    const OpInfo* info = OpRegistry::instance().lookup(op->name());

    // Operand sanity + dominance.
    for (unsigned i = 0; i < op->numOperands(); ++i) {
        Value* operand = op->operand(i);
        if (operand == nullptr)
            return strCat("op '", op->name(), "' has a null operand #", i);
        if (!dominates(operand, op))
            return strCat("op '", op->name(), "' operand #", i,
                          " does not dominate its use");
        // Isolation: operand must be defined within the enclosing isolated op.
        if (enclosing_isolated != nullptr) {
            Operation* def_op = operand->isBlockArgument()
                                    ? operand->ownerBlock()->parentOp()
                                    : operand->definingOp();
            bool inside = def_op != nullptr &&
                          (def_op == enclosing_isolated ||
                           enclosing_isolated->isAncestorOf(def_op));
            if (!inside)
                return strCat("op '", op->name(), "' operand #", i,
                              " breaks isolation of '",
                              enclosing_isolated->name(), "'");
        }
    }

    // Terminator placement.
    if (info != nullptr && info->isTerminator && op->block() != nullptr &&
        op->block()->back() != op)
        return strCat("terminator '", op->name(), "' is not last in its block");

    // Per-op hook.
    if (info != nullptr && info->verify) {
        if (auto error = info->verify(op))
            return error;
    }

    // Recurse; this op becomes the isolation scope if it is isolated.
    Operation* scope = enclosing_isolated;
    if (info != nullptr && info->isolatedFromAbove)
        scope = op;
    for (unsigned r = 0; r < op->numRegions(); ++r) {
        for (const auto& block : op->region(r).blocks()) {
            for (Operation* nested : block->ops()) {
                if (auto error = verifyOp(nested, scope))
                    return error;
            }
        }
    }
    return std::nullopt;
}

} // namespace

std::optional<std::string>
verify(Operation* root)
{
    return verifyOp(root, nullptr);
}

std::optional<Diagnostic>
verifyToDiagnostic(Operation* root, const std::string& what)
{
    std::string where =
        what.empty() ? strCat("'", root->name(), "'")
                     : strCat(what, " ('", root->name(), "')");
    if (auto injected = maybeInjectFault(FaultSite::kVerifier, where))
        return injected;
    if (auto error = verify(root))
        return Diagnostic(ErrorCode::kVerifyFailed, *error, where);
    return std::nullopt;
}

} // namespace hida
