#ifndef HIDA_IR_OPERATION_H
#define HIDA_IR_OPERATION_H

/**
 * @file
 * Core SSA IR objects: Value, Operation, Block and Region. The design
 * mirrors MLIR's region-based IR at a reduced scale: an Operation carries
 * operands, results, attributes and nested regions; a Region carries blocks;
 * a Block carries arguments and an ordered list of operations. Use-def
 * chains are maintained eagerly so rewrites (replaceAllUsesWith, erase,
 * clone) stay constant-bookkeeping.
 */

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/ir/attribute.h"
#include "src/ir/identifier.h"
#include "src/ir/type.h"
#include "src/support/function_ref.h"

namespace hida {

class Block;
class Operation;
class Region;

/**
 * Per-thread counters of the per-operation subtree-fingerprint cache
 * (see Operation::subtreeHash): how often a cached hash was reused versus
 * how many operations had to be re-hashed after an invalidation. Kept
 * thread-local so concurrent DSE workers each observe exactly the reuse
 * of their own module without cross-thread noise (or contention).
 */
struct SubtreeHashStats {
    uint64_t cacheHits = 0;   ///< subtreeHash() calls served from the cache.
    uint64_t recomputes = 0;  ///< Operations whose hash was (re)computed.
};

/**
 * An SSA value: either the result of an Operation or a Block argument.
 * Values are owned by their defining operation/block; client code holds
 * non-owning Value* handles.
 */
class Value {
  public:
    Type type() const { return type_; }
    /**
     * Retype the value. Invalidates the cached subtree fingerprints of the
     * owning operation and of every user (the type feeds their hashes).
     */
    void setType(Type type);

    /** Defining operation, or nullptr for block arguments. */
    Operation* definingOp() const { return definingOp_; }
    /** Owning block for block arguments, or nullptr for op results. */
    Block* ownerBlock() const { return ownerBlock_; }
    /** Result index or argument index. */
    unsigned index() const { return index_; }
    bool isBlockArgument() const { return ownerBlock_ != nullptr; }

    /** Users as (operation, operand index) pairs, in insertion order. */
    const std::vector<std::pair<Operation*, unsigned>>& uses() const
    {
        return uses_;
    }
    bool hasUses() const { return !uses_.empty(); }
    /** Distinct user operations (may repeat if an op uses a value twice). */
    std::vector<Operation*> users() const;

    /** Re-point every use of this value at @p replacement. */
    void replaceAllUsesWith(Value* replacement);
    /**
     * Re-point uses for which @p should_replace(user) holds.
     * @return number of uses replaced.
     */
    unsigned
    replaceUsesIf(Value* replacement,
                  const std::function<bool(Operation*)>& should_replace);

    const std::string& nameHint() const { return nameHint_; }
    void setNameHint(std::string hint) { nameHint_ = std::move(hint); }

  private:
    friend class Block;
    friend class Operation;

    Value(Type type, Operation* defining_op, Block* owner_block, unsigned index)
        : type_(type), definingOp_(defining_op), ownerBlock_(owner_block),
          index_(index)
    {}

    Type type_;
    Operation* definingOp_ = nullptr;
    Block* ownerBlock_ = nullptr;
    unsigned index_ = 0;
    std::vector<std::pair<Operation*, unsigned>> uses_;
    std::string nameHint_;
};

/** Value-to-value remapping used while cloning IR. */
class ValueMapping {
  public:
    void map(Value* from, Value* to) { map_[from] = to; }
    /** Mapped value, or @p from itself when unmapped (transparent capture). */
    Value* lookupOrSelf(Value* from) const
    {
        auto it = map_.find(from);
        return it == map_.end() ? from : it->second;
    }
    bool contains(Value* from) const { return map_.count(from) != 0; }

  private:
    std::unordered_map<Value*, Value*> map_;
};

/** Region of control: an ordered list of blocks owned by an operation. */
class Region {
  public:
    explicit Region(Operation* parent) : parentOp_(parent) {}

    Operation* parentOp() const { return parentOp_; }
    bool empty() const { return blocks_.empty(); }
    size_t numBlocks() const { return blocks_.size(); }
    Block& front();
    const Block& front() const;
    /** Append a fresh empty block and return it. */
    Block* addBlock();
    const std::vector<std::unique_ptr<Block>>& blocks() const
    {
        return blocks_;
    }

  private:
    Operation* parentOp_;
    std::vector<std::unique_ptr<Block>> blocks_;
};

/** A straight-line list of operations plus block arguments. */
class Block {
  public:
    explicit Block(Region* parent) : parentRegion_(parent) {}
    ~Block();

    Region* parentRegion() const { return parentRegion_; }
    /** Operation owning the region this block lives in (nullptr at top). */
    Operation* parentOp() const;

    /** @name Block arguments. @{ */
    Value* addArgument(Type type, std::string name_hint = "");
    unsigned numArguments() const { return args_.size(); }
    Value* argument(unsigned i) const { return args_.at(i).get(); }
    std::vector<Value*> arguments() const;
    void eraseArgument(unsigned i);
    /** @} */

    /** @name Operation list. @{ */
    using OpList = std::list<std::unique_ptr<Operation>>;
    bool empty() const { return ops_.empty(); }
    size_t size() const { return ops_.size(); }
    Operation* front() const { return ops_.front().get(); }
    Operation* back() const { return ops_.back().get(); }
    /** Snapshot of the current operations (safe to mutate while visiting). */
    std::vector<Operation*> ops() const;

    /** In-place iterator over Operation* (no snapshot allocation). */
    class OpIterator {
      public:
        explicit OpIterator(OpList::const_iterator it) : it_(it) {}
        Operation* operator*() const { return it_->get(); }
        OpIterator& operator++()
        {
            ++it_;
            return *this;
        }
        bool operator==(const OpIterator& other) const = default;

      private:
        OpList::const_iterator it_;
    };
    /** In-place begin/end; do not add/remove ops while iterating. */
    OpIterator begin() const { return OpIterator(ops_.begin()); }
    OpIterator end() const { return OpIterator(ops_.end()); }
    /** @} */

  private:
    friend class Operation;
    friend class OpBuilder;

    Region* parentRegion_;
    std::vector<std::unique_ptr<Value>> args_;
    OpList ops_;
};

/** Walk order for Operation::walk. */
enum class WalkOrder { kPreOrder, kPostOrder };

/**
 * The minimal unit of IR: a named operation with typed operands/results,
 * an attribute dictionary and optional nested regions.
 */
class Operation {
  public:
    /**
     * Create a detached operation. Ownership passes to the block it is
     * eventually inserted into (see OpBuilder); detached ops must be
     * destroyed with destroyDetached().
     */
    static Operation* create(Identifier name, std::vector<Value*> operands,
                             const std::vector<Type>& result_types,
                             unsigned num_regions = 0);
    /** String-keyed convenience overload; interns @p name. */
    static Operation* create(std::string_view name,
                             std::vector<Value*> operands,
                             const std::vector<Type>& result_types,
                             unsigned num_regions = 0)
    {
        return create(Identifier::get(name), std::move(operands),
                      result_types, num_regions);
    }
    /** Destroy an operation that was never inserted into a block. */
    static void destroyDetached(Operation* op);

    ~Operation();
    Operation(const Operation&) = delete;
    Operation& operator=(const Operation&) = delete;

    /** Interned op name; `isa<OpT>` and dispatch compare this id. */
    Identifier nameId() const { return nameId_; }
    const std::string& name() const { return nameId_.str(); }
    /** Dialect prefix of the op name ("affine" for "affine.for"). */
    const std::string& dialect() const { return nameId_.dialect().str(); }
    Identifier dialectId() const { return nameId_.dialect(); }

    /** @name Operands. @{ */
    unsigned numOperands() const { return operands_.size(); }
    Value* operand(unsigned i) const { return operands_.at(i); }
    const std::vector<Value*>& operands() const { return operands_; }
    void setOperand(unsigned i, Value* value);
    void appendOperand(Value* value);
    void eraseOperand(unsigned i);
    /** Replace every occurrence of @p from in the operand list by @p to. */
    void replaceUsesOfWith(Value* from, Value* to);
    /** @} */

    /** @name Results. @{ */
    unsigned numResults() const { return results_.size(); }
    Value* result(unsigned i) const { return results_.at(i).get(); }
    std::vector<Value*> results() const;
    bool hasAnyResultUses() const;
    /** Replace uses of each result with the matching result of @p other. */
    void replaceAllUsesWith(Operation* other);
    /** @} */

    /**
     * Drop this operation's (and all nested operations') operand use
     * records, nulling the operand slots. Only legal immediately before
     * destruction; used to break use-def cycles during teardown.
     */
    void dropAllReferences();

    /**
     * @name Attributes.
     * Stored as a flat vector sorted by interned key id: lookups are a
     * branch-light binary search over a cache-friendly array, and the
     * string-keyed overloads are thin shims that intern the key first.
     * @{
     */
    using AttrEntry = std::pair<Identifier, Attribute>;
    using AttrList = std::vector<AttrEntry>;

    bool hasAttr(Identifier key) const;
    Attribute attr(Identifier key) const;
    int64_t intAttrOr(Identifier key, int64_t def) const;
    void setAttr(Identifier key, Attribute value);
    void setIntAttr(Identifier key, int64_t v)
    {
        setAttr(key, Attribute::integer(v));
    }
    void removeAttr(Identifier key);

    bool hasAttr(std::string_view key) const
    {
        return hasAttr(Identifier::get(key));
    }
    Attribute attr(std::string_view key) const
    {
        return attr(Identifier::get(key));
    }
    int64_t intAttrOr(std::string_view key, int64_t def) const
    {
        return intAttrOr(Identifier::get(key), def);
    }
    void setAttr(std::string_view key, Attribute value)
    {
        setAttr(Identifier::get(key), std::move(value));
    }
    void setIntAttr(std::string_view key, int64_t v)
    {
        setIntAttr(Identifier::get(key), v);
    }
    void removeAttr(std::string_view key) { removeAttr(Identifier::get(key)); }

    /** Attribute entries sorted by interned key id (not lexicographic). */
    const AttrList& attrs() const { return attrs_; }
    /** @} */

    /** @name Regions. @{ */
    unsigned numRegions() const { return regions_.size(); }
    Region& region(unsigned i) const { return *regions_.at(i); }
    /** The single entry block of region 0, creating it if absent. */
    Block* body();
    bool hasBody() const
    {
        return !regions_.empty() && !regions_.front()->empty();
    }
    /** @} */

    /** @name Position in the IR. @{ */
    Block* block() const { return block_; }
    /** Operation owning the block this op lives in (nullptr at top level). */
    Operation* parentOp() const;
    /** Walk up parentOp links until an op named @p name (or null). */
    Operation* parentOfName(Identifier name) const;
    Operation* parentOfName(std::string_view name) const
    {
        return parentOfName(Identifier::get(name));
    }
    bool isAncestorOf(const Operation* other) const;
    /** True if this op appears before @p other in the same block. */
    bool isBeforeInBlock(const Operation* other) const;
    Operation* prevInBlock() const;
    Operation* nextInBlock() const;
    void moveBefore(Operation* other);
    void moveAfter(Operation* other);
    void moveToEnd(Block* block);
    void moveToFront(Block* block);
    /** Remove from parent block and delete. Results must be use-free. */
    void erase();
    /** @} */

    /**
     * Deep-clone this operation (detached). Operands are remapped through
     * @p mapping, falling back to the original value when unmapped; cloned
     * results and block arguments are recorded into @p mapping.
     */
    Operation* clone(ValueMapping& mapping) const;

    /**
     * @name Cached subtree fingerprints.
     * Every operation caches a structural hash of its subtree (op name,
     * operand count and types, attributes minus the hash-exempt keys,
     * result and block-argument types, and the cached hashes of nested
     * ops). Mutating accessors (setAttr/removeAttr, operand edits, op
     * insert/move/erase, block/region growth, Value::setType) mark the
     * mutated op and its ancestor chain dirty, so re-hashing after a
     * directive change touches only the dirtied path while clean siblings
     * return their cached hash in O(1). The QoR estimator's directive
     * fingerprints are built from these hashes.
     * @{
     */

    /** Subtree hash, recomputing only dirtied operations. */
    uint64_t subtreeHash() const;
    /**
     * Fold this op's non-exempt attributes into @p h (the shared attr
     * contribution of subtreeHash and of the estimator's enclosing-loop
     * directive folding — one definition so the two can never diverge).
     */
    uint64_t foldOwnAttrs(uint64_t h) const;
    /** True when subtreeHash() would be served from the cache. */
    bool subtreeHashCached() const { return subtreeHashValid_; }
    /** Mark this op and its ancestor chain dirty (idempotent). */
    void invalidateSubtreeHash();

    /**
     * Keys excluded from subtree hashing whose writes do not dirty the
     * cache. Pre-seeded with "ii", the initiation interval the estimator
     * itself writes back (an estimation output, not an input — hashing it
     * would make every estimate invalidate the fingerprints it was keyed
     * on). Registration is append-only and process-wide.
     */
    static bool isAttrHashExempt(Identifier key);
    static void addAttrHashExempt(Identifier key);

    /**
     * Structure epoch of the tree this op lives in, stored on the tree's
     * root operation and changed on every *structural* mutation within
     * that tree (op insert/move/erase, operand edits, block/region/
     * argument growth, value retyping) — attribute writes do not change
     * it. Lets clients cache structure-derived data (e.g. the estimator's
     * memref access-site lists) and revalidate with one compare, and
     * keeps concurrent compilations isolated: one worker's mutations
     * never move another worker's epoch. Epoch values are drawn from a
     * process-wide atomic counter, so a value can never repeat — not
     * even across different trees — and a cached epoch that still
     * matches proves the tree is structurally untouched.
     */
    uint64_t structureEpoch() const;

    /** Root of the tree this op lives in (itself when detached). */
    Operation* rootOp();
    const Operation* rootOp() const;

    /** Per-thread hash-cache reuse counters (see SubtreeHashStats). */
    static const SubtreeHashStats& subtreeHashStats();
    static void resetSubtreeHashStats();
    /** @} */

    /**
     * Visit this op and all nested ops in the requested order, iterating
     * blocks in place (no per-block snapshot allocation). The callback may
     * mutate attributes freely and may erase the *visited* op itself under
     * kPostOrder (the next sibling is latched before the visit); it must
     * not add, move or erase *other* ops in blocks still being walked —
     * use walkSafe for such structural rewrites.
     */
    void walk(FunctionRef<void(Operation*)> fn,
              WalkOrder order = WalkOrder::kPostOrder);
    /**
     * Snapshotting walk for mutating passes: each block's op list is
     * copied before visiting, so the callback may freely erase or move
     * operations of the walked blocks (ops inserted mid-walk are not
     * visited). Costs one heap allocation per non-empty block.
     */
    void walkSafe(FunctionRef<void(Operation*)> fn,
                  WalkOrder order = WalkOrder::kPostOrder);
    /** Collect nested ops (excluding this op) matching @p filter. */
    std::vector<Operation*>
    collect(FunctionRef<bool(Operation*)> filter) const;

  private:
    friend class Block;
    friend class OpBuilder;
    friend class Region;
    friend class Value;

    explicit Operation(Identifier name) : nameId_(name) {}

    void addUse(Value* value, unsigned operand_index);
    void removeUse(Value* value, unsigned operand_index);

    /** Dirty the hash cache of @p block's parent chain (not its ops). */
    static void dirtyAncestors(Block* block);
    /** Move this op's tree to a fresh epoch (see structureEpoch). */
    void bumpStructureEpoch();
    /** bumpStructureEpoch for the tree owning @p block (null-tolerant). */
    static void bumpStructureEpoch(Block* block);

    Identifier nameId_;
    std::vector<Value*> operands_;
    std::vector<std::unique_ptr<Value>> results_;
    AttrList attrs_;
    std::vector<std::unique_ptr<Region>> regions_;

    Block* block_ = nullptr;
    Block::OpList::iterator selfIt_;

    /** Cached subtree hash; valid only while subtreeHashValid_ holds. */
    mutable uint64_t subtreeHash_ = 0;
    mutable bool subtreeHashValid_ = false;
    /** Structure epoch of this tree; meaningful on root ops only. */
    uint64_t rootEpoch_ = 0;
};

/**
 * Thin typed view over an Operation*, the moral equivalent of mlir::Op
 * subclasses. Dialect op classes derive from OpWrapper and expose named
 * accessors over operands/attributes.
 */
class OpWrapper {
  public:
    OpWrapper() = default;
    explicit OpWrapper(Operation* op) : op_(op) {}

    Operation* op() const { return op_; }
    explicit operator bool() const { return op_ != nullptr; }
    bool operator==(const OpWrapper& other) const { return op_ == other.op_; }

  protected:
    Operation* op_ = nullptr;
};

/**
 * dyn_cast-style helpers for OpWrapper subclasses. An op class either
 * defines a static `matches(const Operation*)` predicate (multi-name ops)
 * or a `kOpName` constant, whose interned id is cached per OpT so the
 * check is a single integer compare — no string comparison.
 */
template <typename OpT>
bool
isa(const Operation* op)
{
    if (op == nullptr)
        return false;
    if constexpr (requires { OpT::matches(op); })
        return OpT::matches(op);
    else
        return op->nameId() == opNameId<OpT>();
}

template <typename OpT>
OpT
dynCast(Operation* op)
{
    return isa<OpT>(op) ? OpT(op) : OpT(nullptr);
}

} // namespace hida

#endif // HIDA_IR_OPERATION_H
