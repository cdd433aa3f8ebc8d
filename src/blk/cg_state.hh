/**
 * @file
 * Flat arena-backed per-cgroup gate state, indexed by dense CgroupId.
 *
 * Every blk gate keeps one State record per cgroup it has seen. The
 * original implementations paired an `unordered_map<Cgroup*, size_t>`
 * with a creation-order `std::deque` — fine for the paper's 2-8 tenant
 * experiments, but at O(1000) groups the hash lookups dominate the
 * per-request cost and destroyed groups keep paying an O(n) skip in
 * every scan because the deque is never compacted.
 *
 * CgStateArena replaces that with two flat vectors:
 *
 *  - `slot_of_[id]` maps a dense CgroupId to the state's current slot
 *    (-1 when the gate holds no state for that group), so lookup is one
 *    bounds check and one array load — no hashing, no pointer chasing;
 *  - `states_` holds the live records contiguously in registration
 *    order; iteration touches exactly the live groups.
 *
 * Removal is swap-remove: the last record moves into the vacated slot
 * and both `slot_of_` entries are patched. Registration order is
 * therefore perturbed by removals, but deterministically — the same
 * event sequence yields the same slot layout on every run and at every
 * `--jobs` count. Iteration-order-sensitive logic (vtime scans, BFQ
 * tie-breaks) must order by an explicit key (e.g. a per-state creation
 * sequence number), not by slot position, if removals can interleave.
 *
 * Records move on insertion (vector growth) and on erase (swap), so
 * callers must not hold a `State&` across either; re-look-up via
 * find()/stateFor() instead, and key InvariantChecker monotone series
 * with caller-owned slots inside the State, never with `&state`.
 *
 * `State` must expose a `const cgroup::Cgroup *cg` member (nullptr is a
 * valid key: requests without a cgroup share one dedicated slot).
 */

#ifndef ISOL_BLK_CG_STATE_HH
#define ISOL_BLK_CG_STATE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "cgroup/cgroup.hh"

namespace isol::blk
{

template <typename State>
class CgStateArena
{
  public:
    /** Look up the state for `cg`, default-constructing it on first
     *  sight (with `state.cg` set). May move existing records. */
    State &stateFor(const cgroup::Cgroup *cg)
    {
        int32_t &slot = slotRef(cg);
        if (slot < 0) {
            slot = static_cast<int32_t>(states_.size());
            states_.emplace_back();
            states_.back().cg = cg;
        }
        return states_[static_cast<size_t>(slot)];
    }

    /** nullptr when the gate holds no state for `cg`. */
    State *find(const cgroup::Cgroup *cg)
    {
        int32_t slot = slotOf(cg);
        return slot < 0 ? nullptr : &states_[static_cast<size_t>(slot)];
    }

    const State *find(const cgroup::Cgroup *cg) const
    {
        int32_t slot = slotOf(cg);
        return slot < 0 ? nullptr : &states_[static_cast<size_t>(slot)];
    }

    /**
     * Dense-id lookup for cached ancestor-chain walks: two array loads,
     * no pointer chasing through Cgroup nodes. nullptr when this gate
     * holds no state for the id.
     */
    State *findId(uint32_t id)
    {
        if (id >= slot_of_.size() || slot_of_[id] < 0)
            return nullptr;
        return &states_[static_cast<size_t>(slot_of_[id])];
    }

    bool contains(const cgroup::Cgroup *cg) const { return slotOf(cg) >= 0; }

    /** Swap-remove the state for `cg`; false when absent. */
    bool erase(const cgroup::Cgroup *cg)
    {
        int32_t slot = slotOf(cg);
        if (slot < 0)
            return false;
        auto pos = static_cast<size_t>(slot);
        size_t last = states_.size() - 1;
        if (pos != last) {
            states_[pos] = std::move(states_[last]);
            slotRef(states_[pos].cg) = slot;
        }
        states_.pop_back();
        slotRef(cg) = -1;
        return true;
    }

    size_t size() const { return states_.size(); }
    bool empty() const { return states_.empty(); }

    /** Dense registration-order access (perturbed by swap-removes). */
    State &operator[](size_t i) { return states_[i]; }
    const State &operator[](size_t i) const { return states_[i]; }

    typename std::vector<State>::iterator begin() { return states_.begin(); }
    typename std::vector<State>::iterator end() { return states_.end(); }
    typename std::vector<State>::const_iterator begin() const
    {
        return states_.begin();
    }
    typename std::vector<State>::const_iterator end() const
    {
        return states_.end();
    }

  private:
    int32_t slotOf(const cgroup::Cgroup *cg) const
    {
        if (cg == nullptr)
            return null_slot_;
        size_t id = cg->id();
        return id < slot_of_.size() ? slot_of_[id] : -1;
    }

    int32_t &slotRef(const cgroup::Cgroup *cg)
    {
        if (cg == nullptr)
            return null_slot_;
        size_t id = cg->id();
        if (id >= slot_of_.size())
            slot_of_.resize(id + 1, -1);
        return slot_of_[id];
    }

    std::vector<int32_t> slot_of_;
    int32_t null_slot_ = -1;
    std::vector<State> states_;
};

} // namespace isol::blk

#endif // ISOL_BLK_CG_STATE_HH
