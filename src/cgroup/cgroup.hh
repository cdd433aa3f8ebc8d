/**
 * @file
 * cgroup v2 hierarchy model (paper §IV-A).
 *
 * Semantics reproduced from the kernel:
 *  - one root group; all groups inherit from it;
 *  - "no internal processes": a group either delegates resource control
 *    (management group: +io in cgroup.subtree_control, no processes) or
 *    holds processes (process group: no controllers in its own
 *    subtree_control);
 *  - I/O knobs may only be set on groups whose *parent* enables the io
 *    controller — except io.cost.model/io.cost.qos (root-only) and
 *    io.prio.class (per-process-group, not inheritable);
 *  - knobs are written/read in kernel sysfs string syntax via
 *    writeFile()/readFile(), or through typed accessors.
 */

#ifndef ISOL_CGROUP_CGROUP_HH
#define ISOL_CGROUP_CGROUP_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cgroup/knobs.hh"
#include "common/types.hh"

namespace isol::cgroup
{

class CgroupTree;

/** Dense id of a cgroup within its tree. */
using CgroupId = uint32_t;

/**
 * One control group.
 */
class Cgroup
{
  public:
    const std::string &name() const { return name_; }

    /** Slash-separated path from the root ("/" for the root itself). */
    std::string path() const;

    CgroupId id() const { return id_; }
    Cgroup *parent() const { return parent_; }
    bool isRoot() const { return parent_ == nullptr; }

    /** Levels below the root (root itself is depth 0). */
    uint32_t depth() const { return depth_; }

    /**
     * Cached ancestor chain as dense ids: this group first, then each
     * ancestor up to but excluding the root. Built once at creation, so
     * hierarchical charge/throttle walks are O(depth) array scans with
     * no pointer chasing. Empty for the root.
     */
    const std::vector<CgroupId> &chain() const { return chain_; }

    const std::vector<Cgroup *> &children() const { return children_; }

    /** Whether the io controller is enabled for the children. */
    bool ioControllerEnabled() const { return io_enabled_; }

    /** Number of processes attached. */
    uint32_t processCount() const { return processes_; }

    /** Processes in this group's whole subtree (incrementally kept). */
    uint32_t subtreeProcessCount() const { return subtree_processes_; }

    // --- Typed knob accessors (validated like writeFile) ---

    /** io.weight (io.cost), 1-10000. */
    uint32_t ioWeight() const { return io_weight_; }

    /** io.bfq.weight, 1-1000. */
    uint32_t bfqWeight() const { return bfq_weight_; }

    /** io.prio.class. */
    PrioClass prioClass() const { return prio_class_; }

    /** io.max limits for `dev` (unlimited when never set). */
    IoMaxLimits ioMax(DeviceId dev) const;

    /** io.latency target for `dev` (0 = disabled). */
    SimTime ioLatencyTarget(DeviceId dev) const;

  private:
    friend class CgroupTree;

    Cgroup(CgroupTree *tree, Cgroup *parent, std::string name, CgroupId id)
        : tree_(tree), parent_(parent), name_(std::move(name)), id_(id)
    {
        if (parent != nullptr) {
            depth_ = parent->depth_ + 1;
            chain_.reserve(parent->chain_.size() + 1);
            chain_.push_back(id);
            chain_.insert(chain_.end(), parent->chain_.begin(),
                          parent->chain_.end());
        }
    }

    CgroupTree *tree_;
    Cgroup *parent_;
    std::string name_;
    CgroupId id_;
    uint32_t depth_ = 0;
    std::vector<CgroupId> chain_;
    std::vector<Cgroup *> children_;

    bool io_enabled_ = false; //!< +io in cgroup.subtree_control
    uint32_t processes_ = 0;
    uint32_t subtree_processes_ = 0;

    uint32_t io_weight_ = 100;
    uint32_t bfq_weight_ = 100;
    PrioClass prio_class_ = PrioClass::kNoChange;
    std::map<DeviceId, IoMaxLimits> io_max_;
    std::map<DeviceId, IoLatencyConfig> io_latency_;
};

/**
 * The cgroup hierarchy plus the root-only io.cost global configuration.
 */
class CgroupTree
{
  public:
    /**
     * Called just before a group is destroyed, while it is still fully
     * linked into the tree. Blk-layer gates use this to drop per-cgroup
     * state (arena slots, queues, pending wake events).
     */
    using RemovalListener = std::function<void(Cgroup &)>;

    CgroupTree();

    /** The root group. */
    Cgroup &root() { return *root_; }
    const Cgroup &root() const { return *root_; }

    /**
     * All id slots. Index == CgroupId; a slot is null while its id sits
     * on the free list after removeGroup(). Iterators must skip nulls.
     */
    const std::vector<std::unique_ptr<Cgroup>> &groups() const
    {
        return groups_;
    }

    /** Number of id slots ever allocated (bound for dense-id arrays). */
    size_t idCapacity() const { return groups_.size(); }

    /** Number of currently live groups (including the root). */
    size_t liveGroupCount() const { return live_groups_; }

    /**
     * Bumped on every topology or knob mutation (create/remove,
     * subtree_control, process attach/detach, any knob write). Gates
     * key cached shares/limits on this and re-derive lazily.
     */
    uint64_t version() const { return version_; }

    Cgroup &group(CgroupId id);
    const Cgroup &group(CgroupId id) const;

    /**
     * Create a child group. Fails if the parent holds processes (v2
     * forbids sibling processes and groups receiving controllers) when
     * the parent has the io controller enabled. Ids of removed groups
     * are recycled LIFO, so long create/destroy churn does not grow the
     * id space (or the gates' dense arrays) without bound.
     */
    Cgroup &createChild(Cgroup &parent, const std::string &name);

    /**
     * Destroy a group (rmdir). The group must be empty: no child
     * groups, no attached processes. Removal listeners run first, while
     * the group is still intact; then the id returns to the free list.
     */
    void removeGroup(Cgroup &group);

    /**
     * Register a removal listener; returns a token for removal. Order
     * of notification is registration order.
     */
    size_t addRemovalListener(RemovalListener fn);

    /** Unregister a listener (gates do this in their destructors). */
    void removeRemovalListener(size_t token);

    /**
     * Resolve a slash-separated path relative to the root ("a/b/c");
     * "" or "/" yields the root. Returns nullptr when missing.
     */
    Cgroup *resolve(const std::string &path);

    /** Enable the io controller for `group`'s children ("+io"). */
    void enableIoController(Cgroup &group);

    /**
     * Attach a process to `group`. Enforces "no internal processes":
     * groups with controllers enabled cannot hold processes.
     */
    void attachProcess(Cgroup &group);

    /** Detach one process. */
    void detachProcess(Cgroup &group);

    /**
     * Write a knob file in kernel syntax. Valid files: "io.weight",
     * "io.bfq.weight", "io.prio.class", "io.max", "io.latency",
     * "io.cost.model", "io.cost.qos", "cgroup.subtree_control".
     * io.max/io.latency/io.cost.* values must be prefixed with a device
     * id ("<dev> key=value ..."). Throws FatalError on invalid input or
     * a rule violation — like -EINVAL from the kernel.
     */
    void writeFile(Cgroup &group, const std::string &file,
                   const std::string &value);

    /** Read a knob file back in kernel-ish syntax. */
    std::string readFile(const Cgroup &group, const std::string &file) const;

    // --- Root-only io.cost globals ---

    /** io.cost.model for `dev` (defaults when never written). */
    IoCostModel costModel(DeviceId dev) const;

    /** io.cost.qos for `dev`. */
    IoCostQos costQos(DeviceId dev) const;

    /** Typed setter mirroring writeFile("io.cost.model"). */
    void setCostModel(DeviceId dev, const IoCostModel &model);

    /** Typed setter mirroring writeFile("io.cost.qos"). */
    void setCostQos(DeviceId dev, const IoCostQos &qos);

    /**
     * Hierarchical weight share of `group` in [0,1]: the product over the
     * path from the root of (weight / sum of sibling weights), counting
     * only siblings that have processes or descendants with processes.
     * `bfq` selects io.bfq.weight instead of io.weight.
     */
    double hierarchicalShare(const Cgroup &group, bool bfq) const;

    /** True when the subtree rooted here contains any process. O(1). */
    bool subtreeActive(const Cgroup &group) const
    {
        return group.subtreeProcessCount() > 0;
    }

  private:
    void validateKnobWrite(Cgroup &group, const std::string &file) const;

    void bumpVersion() { ++version_; }

    std::vector<std::unique_ptr<Cgroup>> groups_;
    std::vector<CgroupId> free_ids_;
    Cgroup *root_;
    size_t live_groups_ = 1;
    uint64_t version_ = 1;

    struct Listener
    {
        size_t token;
        RemovalListener fn;
    };
    std::vector<Listener> removal_listeners_;
    size_t next_listener_token_ = 0;

    std::map<DeviceId, IoCostModel> cost_models_;
    std::map<DeviceId, IoCostQos> cost_qos_;
};

} // namespace isol::cgroup

#endif // ISOL_CGROUP_CGROUP_HH
