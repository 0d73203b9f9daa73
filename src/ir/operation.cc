#include "src/ir/operation.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "src/support/diagnostics.h"
#include "src/support/utils.h"

namespace hida {

namespace {

/**
 * Source of structure-epoch values. Epochs live per tree (on the root
 * operation) so concurrent compilations never invalidate each other's
 * structure caches, but the *values* are drawn from one process-wide
 * atomic counter: a value can never repeat, so a cached epoch that still
 * compares equal proves its tree is untouched even if a subtree was
 * re-rooted into a different tree in between.
 */
std::atomic<uint64_t> g_epoch_source{0};

uint64_t
nextStructureEpoch()
{
    return g_epoch_source.fetch_add(1, std::memory_order_relaxed) + 1;
}

/** Per-thread subtree-hash reuse counters (see SubtreeHashStats). */
thread_local SubtreeHashStats t_subtree_hash_stats;

/**
 * Attribute keys excluded from subtree hashing. Append-only and tiny;
 * reads (every setAttr/removeAttr and hash fold, on every thread) are
 * lock-free scans over a fixed array, appends take a mutex. Pre-seeded
 * with "ii": the estimator writes it back as an output.
 */
struct HashExemptKeys {
    static constexpr size_t kMax = 16;
    std::mutex mutex;
    std::atomic<uint32_t> keys[kMax] = {};
    std::atomic<size_t> count{0};

    HashExemptKeys() { add(Identifier::get("ii")); }

    bool contains(uint32_t raw) const
    {
        size_t n = count.load(std::memory_order_acquire);
        for (size_t i = 0; i < n; ++i)
            if (keys[i].load(std::memory_order_relaxed) == raw)
                return true;
        return false;
    }

    void add(Identifier key)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (contains(key.raw()))
            return;
        size_t n = count.load(std::memory_order_relaxed);
        HIDA_ASSERT(n < kMax, "too many hash-exempt attribute keys");
        keys[n].store(key.raw(), std::memory_order_relaxed);
        count.store(n + 1, std::memory_order_release);
    }
};

HashExemptKeys&
hashExemptKeys()
{
    static HashExemptKeys keys;
    return keys;
}

} // namespace

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

void
Value::setType(Type type)
{
    if (type_ == type)
        return;
    type_ = type;
    // The type feeds the hash of the owning op (result/block-arg types)
    // and of every user (operand types).
    Operation* owner =
        definingOp_ ? definingOp_ : (ownerBlock_ ? ownerBlock_->parentOp()
                                                 : nullptr);
    if (owner != nullptr) {
        owner->invalidateSubtreeHash();
        owner->bumpStructureEpoch();
    }
    for (const auto& [op, idx] : uses_) {
        op->invalidateSubtreeHash();
        // Users normally share the owner's tree; bumping each is cheap
        // and keeps detached-construction edge cases correct.
        op->bumpStructureEpoch();
    }
}

std::vector<Operation*>
Value::users() const
{
    std::vector<Operation*> result;
    for (const auto& [op, idx] : uses_)
        if (std::find(result.begin(), result.end(), op) == result.end())
            result.push_back(op);
    return result;
}

void
Value::replaceAllUsesWith(Value* replacement)
{
    replaceUsesIf(replacement, [](Operation*) { return true; });
}

unsigned
Value::replaceUsesIf(Value* replacement,
                     const std::function<bool(Operation*)>& should_replace)
{
    HIDA_ASSERT(replacement != this, "self-replacement");
    unsigned replaced = 0;
    // Snapshot: setOperand mutates uses_.
    auto uses = uses_;
    for (const auto& [op, idx] : uses) {
        if (should_replace(op)) {
            op->setOperand(idx, replacement);
            ++replaced;
        }
    }
    return replaced;
}

//===----------------------------------------------------------------------===//
// Region
//===----------------------------------------------------------------------===//

Block&
Region::front()
{
    HIDA_ASSERT(!blocks_.empty(), "region has no blocks");
    return *blocks_.front();
}

const Block&
Region::front() const
{
    HIDA_ASSERT(!blocks_.empty(), "region has no blocks");
    return *blocks_.front();
}

Block*
Region::addBlock()
{
    blocks_.push_back(std::make_unique<Block>(this));
    if (parentOp_ != nullptr) {
        parentOp_->invalidateSubtreeHash();
        parentOp_->bumpStructureEpoch();
    }
    return blocks_.back().get();
}

//===----------------------------------------------------------------------===//
// Block
//===----------------------------------------------------------------------===//

Block::~Block()
{
    // Break all use-def links first so value destruction order is irrelevant.
    for (const auto& op : ops_)
        op->dropAllReferences();
    ops_.clear();
}

Operation*
Block::parentOp() const
{
    return parentRegion_ ? parentRegion_->parentOp() : nullptr;
}

Value*
Block::addArgument(Type type, std::string name_hint)
{
    args_.push_back(std::unique_ptr<Value>(
        new Value(type, nullptr, this, static_cast<unsigned>(args_.size()))));
    args_.back()->setNameHint(std::move(name_hint));
    if (Operation* parent = parentOp()) {
        parent->invalidateSubtreeHash();
        parent->bumpStructureEpoch();
    }
    return args_.back().get();
}

std::vector<Value*>
Block::arguments() const
{
    std::vector<Value*> result;
    result.reserve(args_.size());
    for (const auto& a : args_)
        result.push_back(a.get());
    return result;
}

void
Block::eraseArgument(unsigned i)
{
    HIDA_ASSERT(i < args_.size(), "argument index out of range");
    HIDA_ASSERT(!args_[i]->hasUses(), "erasing a block argument that has uses");
    args_.erase(args_.begin() + i);
    for (unsigned j = i; j < args_.size(); ++j)
        args_[j]->index_ = j;
    if (Operation* parent = parentOp()) {
        parent->invalidateSubtreeHash();
        parent->bumpStructureEpoch();
    }
}

std::vector<Operation*>
Block::ops() const
{
    std::vector<Operation*> result;
    result.reserve(ops_.size());
    for (const auto& op : ops_)
        result.push_back(op.get());
    return result;
}

//===----------------------------------------------------------------------===//
// Operation
//===----------------------------------------------------------------------===//

Operation*
Operation::create(Identifier name, std::vector<Value*> operands,
                  const std::vector<Type>& result_types, unsigned num_regions)
{
    auto* op = new Operation(name);
    for (Value* v : operands)
        op->appendOperand(v);
    for (unsigned i = 0; i < result_types.size(); ++i)
        op->results_.push_back(
            std::unique_ptr<Value>(new Value(result_types[i], op, nullptr, i)));
    for (unsigned i = 0; i < num_regions; ++i)
        op->regions_.push_back(std::make_unique<Region>(op));
    return op;
}

void
Operation::destroyDetached(Operation* op)
{
    HIDA_ASSERT(op->block_ == nullptr, "operation is attached to a block");
    HIDA_ASSERT(!op->hasAnyResultUses(), "detached op has live result uses");
    op->dropAllReferences();
    delete op;
}

Operation::~Operation() = default;

void
Operation::addUse(Value* value, unsigned operand_index)
{
    value->uses_.emplace_back(this, operand_index);
}

void
Operation::removeUse(Value* value, unsigned operand_index)
{
    auto& uses = value->uses_;
    auto it = std::find(uses.begin(), uses.end(),
                        std::make_pair(this, operand_index));
    HIDA_ASSERT(it != uses.end(), "use record missing for ", name());
    uses.erase(it);
}

void
Operation::setOperand(unsigned i, Value* value)
{
    HIDA_ASSERT(i < operands_.size(), "operand index out of range");
    if (operands_[i] == value)
        return;
    removeUse(operands_[i], i);
    operands_[i] = value;
    addUse(value, i);
    invalidateSubtreeHash();
    bumpStructureEpoch();
}

void
Operation::appendOperand(Value* value)
{
    HIDA_ASSERT(value != nullptr, "null operand on ", name());
    operands_.push_back(value);
    addUse(value, static_cast<unsigned>(operands_.size() - 1));
    invalidateSubtreeHash();
    bumpStructureEpoch();
}

void
Operation::eraseOperand(unsigned i)
{
    HIDA_ASSERT(i < operands_.size(), "operand index out of range");
    removeUse(operands_[i], i);
    // Shift later use records down by one.
    for (unsigned j = i + 1; j < operands_.size(); ++j) {
        for (auto& use : operands_[j]->uses_) {
            if (use.first == this && use.second == j)
                use.second = j - 1;
        }
    }
    operands_.erase(operands_.begin() + i);
    invalidateSubtreeHash();
    bumpStructureEpoch();
}

void
Operation::replaceUsesOfWith(Value* from, Value* to)
{
    for (unsigned i = 0; i < operands_.size(); ++i)
        if (operands_[i] == from)
            setOperand(i, to);
}

std::vector<Value*>
Operation::results() const
{
    std::vector<Value*> result;
    result.reserve(results_.size());
    for (const auto& r : results_)
        result.push_back(r.get());
    return result;
}

bool
Operation::hasAnyResultUses() const
{
    for (const auto& r : results_)
        if (r->hasUses())
            return true;
    return false;
}

void
Operation::replaceAllUsesWith(Operation* other)
{
    HIDA_ASSERT(numResults() == other->numResults(),
                "result count mismatch in RAUW");
    for (unsigned i = 0; i < numResults(); ++i)
        result(i)->replaceAllUsesWith(other->result(i));
}

void
Operation::dropAllReferences()
{
    for (unsigned i = 0; i < operands_.size(); ++i) {
        if (operands_[i] != nullptr) {
            removeUse(operands_[i], i);
            operands_[i] = nullptr;
        }
    }
    for (const auto& region : regions_)
        for (const auto& block : region->blocks())
            for (const auto& op : block->ops())
                op->dropAllReferences();
}

//===----------------------------------------------------------------------===//
// Subtree fingerprint cache
//===----------------------------------------------------------------------===//

uint64_t
Operation::subtreeHash() const
{
    if (subtreeHashValid_) {
        ++t_subtree_hash_stats.cacheHits;
        return subtreeHash_;
    }
    ++t_subtree_hash_stats.recomputes;
    uint64_t h = hashMix(nameId_.raw());
    h = hashCombine(h, operands_.size());
    for (Value* operand : operands_)
        h = hashCombine(h, operand->type().hash());
    h = foldOwnAttrs(h);
    for (const auto& r : results_)
        h = hashCombine(h, r->type().hash());
    for (const auto& region : regions_) {
        h = hashCombine(h, region->numBlocks());
        for (const auto& block : region->blocks()) {
            h = hashCombine(h, block->numArguments());
            for (unsigned i = 0; i < block->numArguments(); ++i)
                h = hashCombine(h, block->argument(i)->type().hash());
            // Children fold their *cached* hashes: after a directive
            // change only the dirtied path is recomputed.
            for (const auto& op : block->ops_)
                h = hashCombine(h, op->subtreeHash());
        }
    }
    subtreeHash_ = h;
    subtreeHashValid_ = true;
    return h;
}

uint64_t
Operation::foldOwnAttrs(uint64_t h) const
{
    for (const auto& [key, value] : attrs_) {
        if (isAttrHashExempt(key))
            continue;
        h = hashCombine(h, key.raw());
        h = hashCombine(h, value.hash());
    }
    return h;
}

void
Operation::invalidateSubtreeHash()
{
    // Invariant: an attached dirty op always has a dirty ancestor chain
    // (every valid->dirty transition propagates up, and freshly inserted
    // ops dirty their chain on attach), so the walk can stop at the first
    // already-dirty ancestor.
    Operation* op = this;
    while (op != nullptr && op->subtreeHashValid_) {
        op->subtreeHashValid_ = false;
        op = op->parentOp();
    }
}

void
Operation::dirtyAncestors(Block* block)
{
    if (Operation* parent = block != nullptr ? block->parentOp() : nullptr)
        parent->invalidateSubtreeHash();
}

bool
Operation::isAttrHashExempt(Identifier key)
{
    return hashExemptKeys().contains(key.raw());
}

void
Operation::addAttrHashExempt(Identifier key)
{
    hashExemptKeys().add(key);
}

Operation*
Operation::rootOp()
{
    Operation* op = this;
    while (Operation* parent = op->parentOp())
        op = parent;
    return op;
}

const Operation*
Operation::rootOp() const
{
    return const_cast<Operation*>(this)->rootOp();
}

uint64_t
Operation::structureEpoch() const
{
    return rootOp()->rootEpoch_;
}

void
Operation::bumpStructureEpoch()
{
    rootOp()->rootEpoch_ = nextStructureEpoch();
}

void
Operation::bumpStructureEpoch(Block* block)
{
    if (Operation* parent = block != nullptr ? block->parentOp() : nullptr)
        parent->bumpStructureEpoch();
}

const SubtreeHashStats&
Operation::subtreeHashStats()
{
    return t_subtree_hash_stats;
}

void
Operation::resetSubtreeHashStats()
{
    t_subtree_hash_stats = SubtreeHashStats();
}

namespace {

/** lower_bound over the id-sorted attribute list. */
inline Operation::AttrList::const_iterator
attrLowerBound(const Operation::AttrList& attrs, Identifier key)
{
    return std::lower_bound(
        attrs.begin(), attrs.end(), key,
        [](const Operation::AttrEntry& entry, Identifier k) {
            return entry.first < k;
        });
}

} // namespace

bool
Operation::hasAttr(Identifier key) const
{
    auto it = attrLowerBound(attrs_, key);
    return it != attrs_.end() && it->first == key;
}

Attribute
Operation::attr(Identifier key) const
{
    auto it = attrLowerBound(attrs_, key);
    return it != attrs_.end() && it->first == key ? it->second : Attribute();
}

int64_t
Operation::intAttrOr(Identifier key, int64_t def) const
{
    auto it = attrLowerBound(attrs_, key);
    return it != attrs_.end() && it->first == key ? it->second.asInt() : def;
}

void
Operation::setAttr(Identifier key, Attribute value)
{
    auto it = attrLowerBound(attrs_, key);
    if (it != attrs_.end() && it->first == key) {
        // Overwrite in place. Keep the existing storage on equal values so
        // repeated directive re-application (the DSE loop) preserves
        // structure sharing and cached hashes.
        if (it->second == value)
            return;
        attrs_[it - attrs_.begin()].second = std::move(value);
    } else {
        attrs_.insert(attrs_.begin() + (it - attrs_.begin()),
                      AttrEntry(key, std::move(value)));
    }
    if (!isAttrHashExempt(key))
        invalidateSubtreeHash();
}

void
Operation::removeAttr(Identifier key)
{
    auto it = attrLowerBound(attrs_, key);
    if (it == attrs_.end() || it->first != key)
        return;
    attrs_.erase(attrs_.begin() + (it - attrs_.begin()));
    if (!isAttrHashExempt(key))
        invalidateSubtreeHash();
}

Block*
Operation::body()
{
    HIDA_ASSERT(!regions_.empty(), "op ", name(), " has no regions");
    if (regions_.front()->empty())
        regions_.front()->addBlock();
    return &regions_.front()->front();
}

Operation*
Operation::parentOp() const
{
    return block_ ? block_->parentOp() : nullptr;
}

Operation*
Operation::parentOfName(Identifier name) const
{
    for (Operation* p = parentOp(); p != nullptr; p = p->parentOp())
        if (p->nameId() == name)
            return p;
    return nullptr;
}

bool
Operation::isAncestorOf(const Operation* other) const
{
    for (const Operation* p = other; p != nullptr; p = p->parentOp())
        if (p == this)
            return true;
    return false;
}

bool
Operation::isBeforeInBlock(const Operation* other) const
{
    HIDA_ASSERT(block_ != nullptr && block_ == other->block_,
                "ops must share a block");
    for (const auto& op : block_->ops_) {
        if (op.get() == this)
            return true;
        if (op.get() == other)
            return false;
    }
    HIDA_PANIC("ops not found in their own block");
}

Operation*
Operation::prevInBlock() const
{
    HIDA_ASSERT(block_ != nullptr, "detached op");
    if (selfIt_ == block_->ops_.begin())
        return nullptr;
    return std::prev(selfIt_)->get();
}

Operation*
Operation::nextInBlock() const
{
    HIDA_ASSERT(block_ != nullptr, "detached op");
    auto next = std::next(selfIt_);
    return next == block_->ops_.end() ? nullptr : next->get();
}

void
Operation::moveBefore(Operation* other)
{
    HIDA_ASSERT(block_ != nullptr && other->block_ != nullptr,
                "moveBefore requires attached ops");
    // The moved subtree itself is unchanged (its cached hash survives);
    // both the old and the new parent chain lose a/gain a child.
    Block* dest = other->block_;
    dirtyAncestors(block_);
    bumpStructureEpoch(block_);
    dest->ops_.splice(other->selfIt_, block_->ops_, selfIt_);
    block_ = dest;
    dirtyAncestors(dest);
    bumpStructureEpoch(dest);
}

void
Operation::moveAfter(Operation* other)
{
    HIDA_ASSERT(block_ != nullptr && other->block_ != nullptr,
                "moveAfter requires attached ops");
    Block* dest = other->block_;
    dirtyAncestors(block_);
    bumpStructureEpoch(block_);
    dest->ops_.splice(std::next(other->selfIt_), block_->ops_, selfIt_);
    block_ = dest;
    dirtyAncestors(dest);
    bumpStructureEpoch(dest);
}

void
Operation::moveToEnd(Block* block)
{
    HIDA_ASSERT(block_ != nullptr, "detached op");
    dirtyAncestors(block_);
    bumpStructureEpoch(block_);
    block->ops_.splice(block->ops_.end(), block_->ops_, selfIt_);
    block_ = block;
    dirtyAncestors(block);
    bumpStructureEpoch(block);
}

void
Operation::moveToFront(Block* block)
{
    HIDA_ASSERT(block_ != nullptr, "detached op");
    dirtyAncestors(block_);
    bumpStructureEpoch(block_);
    block->ops_.splice(block->ops_.begin(), block_->ops_, selfIt_);
    block_ = block;
    dirtyAncestors(block);
    bumpStructureEpoch(block);
}

void
Operation::erase()
{
    HIDA_ASSERT(block_ != nullptr, "erasing a detached op");
    HIDA_ASSERT(!hasAnyResultUses(), "erasing op ", name(), " with live uses");
    while (numOperands() > 0)
        eraseOperand(numOperands() - 1);
    Block* block = block_;
    block_ = nullptr;
    dirtyAncestors(block);
    bumpStructureEpoch(block);
    block->ops_.erase(selfIt_); // deletes this
}

Operation*
Operation::clone(ValueMapping& mapping) const
{
    auto* cloned = new Operation(nameId_);
    cloned->attrs_ = attrs_;
    for (Value* operand : operands_)
        cloned->appendOperand(mapping.lookupOrSelf(operand));
    for (const auto& r : results_) {
        unsigned idx = static_cast<unsigned>(cloned->results_.size());
        cloned->results_.push_back(
            std::unique_ptr<Value>(new Value(r->type(), cloned, nullptr, idx)));
        cloned->results_.back()->setNameHint(r->nameHint());
        mapping.map(r.get(), cloned->results_.back().get());
    }
    for (const auto& region : regions_) {
        cloned->regions_.push_back(std::make_unique<Region>(cloned));
        Region* new_region = cloned->regions_.back().get();
        for (const auto& block : region->blocks()) {
            Block* new_block = new_region->addBlock();
            for (const auto& arg : block->args_) {
                Value* new_arg =
                    new_block->addArgument(arg->type(), arg->nameHint());
                mapping.map(arg.get(), new_arg);
            }
            for (const auto& op : block->ops_) {
                Operation* new_op = op->clone(mapping);
                new_op->block_ = new_block;
                new_block->ops_.push_back(std::unique_ptr<Operation>(new_op));
                new_op->selfIt_ = std::prev(new_block->ops_.end());
            }
        }
    }
    return cloned;
}

void
Operation::walk(FunctionRef<void(Operation*)> fn, WalkOrder order)
{
    if (order == WalkOrder::kPreOrder)
        fn(this);
    for (const auto& region : regions_) {
        for (const auto& block : region->blocks()) {
            // Latch the next sibling before visiting so a kPostOrder
            // callback may erase the visited op itself (std::list erasure
            // only invalidates the erased iterator).
            auto& ops = block->ops_;
            for (auto it = ops.begin(); it != ops.end();) {
                Operation* op = it->get();
                ++it;
                op->walk(fn, order);
            }
        }
    }
    if (order == WalkOrder::kPostOrder)
        fn(this);
}

void
Operation::walkSafe(FunctionRef<void(Operation*)> fn, WalkOrder order)
{
    if (order == WalkOrder::kPreOrder)
        fn(this);
    for (const auto& region : regions_) {
        for (const auto& block : region->blocks()) {
            // Snapshot for full structural-mutation tolerance.
            std::vector<Operation*> snapshot = block->ops();
            for (Operation* op : snapshot)
                op->walkSafe(fn, order);
        }
    }
    if (order == WalkOrder::kPostOrder)
        fn(this);
}

std::vector<Operation*>
Operation::collect(FunctionRef<bool(Operation*)> filter) const
{
    std::vector<Operation*> result;
    const_cast<Operation*>(this)->walk([&](Operation* op) {
        if (op != this && filter(op))
            result.push_back(op);
    }, WalkOrder::kPreOrder);
    return result;
}

} // namespace hida
