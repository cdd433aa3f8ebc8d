/**
 * @file
 * Discrete-event queue: the heart of the simulator.
 *
 * Events are (time, sequence, callback) triples ordered by time and, for
 * equal times, by insertion order so simulations are fully deterministic.
 *
 * Layout: a hierarchical timing wheel (6 levels x 64 slots, 1 ns tick,
 * ~68.7 s span) over a slot arena, with a 4-ary heap as an overflow
 * ladder for events beyond the wheel horizon (or behind the cursor).
 * Schedule and cancel are O(1); pop is amortised O(1) for the clustered
 * short-horizon timers that dominate this DES. Wheel buckets are
 * intrusive singly-linked lists through the arena, with one 64-bit
 * occupancy bitmap per level, so finding the next bucket is a couple of
 * ctz instructions. The arena is split hot and cold: the 32-byte slots
 * that bucket walks and cascades touch hold only the ordering key, the
 * link and the generation tag, and the callbacks live in a parallel
 * vector that only schedule, cancel and pop touch.
 *
 * Determinism: the minimum bucket's entries at its earliest time are
 * drained, in list order, into a `ready_` list, and settle() compares
 * the ready head against the ladder top with the full (when, seq) key.
 * List order is schedule order within one time (see drainMinBucket()),
 * so the observable pop order is exactly the (when, seq) order of a
 * comparison-based queue, byte for byte.
 * popIfAtOrBefore() settles once per event: it finds the head, checks
 * it against the caller's deadline and pops it in one visit.
 *
 * Slots carry generation tags, so an EventId is (slot, generation) and
 * cancellation is O(1): validate the tag, destroy the callback in place,
 * and let the dead entry fall out lazily when its bucket or heap key is
 * next visited. There is no side table — cancelling an id that already
 * fired is a tag mismatch, not a leaked marker — and `size()` is an
 * exact live count. Callbacks use SmallCallback so the pointer+id
 * captures the simulator schedules by the million never allocate.
 */

#ifndef ISOL_SIM_EVENT_QUEUE_HH
#define ISOL_SIM_EVENT_QUEUE_HH

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/small_function.hh"

namespace isol::sim
{

/** Opaque handle identifying a scheduled event (for cancellation). */
using EventId = uint64_t;

/** Sentinel id meaning "no event". */
constexpr EventId kInvalidEventId = 0;

/**
 * Time-ordered event queue with deterministic tie-breaking.
 *
 * The queue owns no notion of "now"; the Simulator drives it and maintains
 * the clock. The wheel keeps its own cursor, which only ever trails the
 * simulator clock: it advances to the time of the earliest live event
 * during settle(), so an event scheduled "in the past" relative to the
 * cursor (possible only through direct EventQueue use in tests) is routed
 * to the ladder and still pops in exact (when, seq) order.
 */
class EventQueue
{
  public:
    using Callback = SmallCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule `cb` to fire at absolute time `when`. */
    EventId
    schedule(SimTime when, Callback cb)
    {
        uint32_t slot = allocSlot();
        cbs_[slot] = std::move(cb);
        Slot &s = slots_[slot];
        s.when = when;
        s.seq = next_seq_++;
        s.next = kNoSlot;
        s.state = State::kPending;
        place(slot, when);
        ++live_;
        if (live_ > peak_depth_)
            peak_depth_ = live_;
        return makeId(slot, s.gen);
    }

    /**
     * Cancel a previously scheduled event in O(1). Safe to call for ids
     * that have already fired (the generation tag no longer matches).
     * Returns true iff the event was still pending.
     */
    bool
    cancel(EventId id)
    {
        uint32_t slot;
        uint32_t gen;
        if (!splitId(id, slot, gen) || slot >= slots_.size())
            return false;
        Slot &s = slots_[slot];
        if (s.state != State::kPending || s.gen != gen)
            return false;
        // Destroy the callback now (releases captures); the bucket entry
        // or ladder key is dropped lazily when it is next visited.
        cbs_[slot].reset();
        s.state = State::kCancelled;
        ++s.gen; // a second cancel with the same id mismatches
        --live_;
        return true;
    }

    /** True when no live (non-cancelled) events remain. */
    bool empty() const { return live_ == 0; }

    /** Exact number of live (non-cancelled) pending events. */
    size_t size() const { return live_; }

    /** Time of the earliest live event; kSimTimeMax when empty. */
    SimTime
    nextTime() const
    {
        if (live_ == 0)
            return kSimTimeMax;
        // Logically const: the set of live events is unchanged; settling
        // only reorganises storage (cursor advance, cascades, lazy frees).
        auto *self = const_cast<EventQueue *>(this);
        return self->settle() == Source::kReady
                   ? self->slots_[self->ready_[self->ready_head_]].when
                   : self->ladder_.front().when;
    }

    /**
     * Pop the earliest live event if it is due at or before `deadline`:
     * store its time in `when`, move its callback into `cb`, and return
     * true. Returns false, leaving the queue's live events and `cb`
     * untouched, when the queue is empty or its head is later than
     * `deadline`. One settle serves both the check and the pop.
     */
    bool
    popIfAtOrBefore(SimTime deadline, SimTime &when, Callback &cb)
    {
        if (live_ == 0)
            return false;
        uint32_t slot;
        if (settle() == Source::kLadder) {
            const Key top = ladder_.front();
            if (top.when > deadline)
                return false;
            slot = top.slot;
            ladderRemoveTop();
        } else {
            slot = ready_[ready_head_];
            if (slots_[slot].when > deadline)
                return false;
            ++ready_head_;
        }
        when = slots_[slot].when;
        cb = std::move(cbs_[slot]);
        freeSlot(slot);
        --live_;
        return true;
    }

    /**
     * Pop and return the earliest live event. Precondition: !empty().
     * The returned pair is (time, callback); the caller invokes it.
     */
    std::pair<SimTime, Callback>
    pop()
    {
        std::pair<SimTime, Callback> out{kSimTimeMax, nullptr};
        popIfAtOrBefore(kSimTimeMax, out.first, out.second);
        return out;
    }

    /** High-water mark of live pending events (profiling). */
    size_t peakDepth() const { return peak_depth_; }

  private:
    enum class State : uint8_t { kFree, kPending, kCancelled };

    /** Where settle() found the earliest live event. */
    enum class Source : uint8_t { kReady, kLadder };

    static constexpr int kLevelBits = 6; //!< 64 slots per level
    static constexpr int kLevels = 6; //!< span 64^6 ns ~= 68.7 s
    static constexpr uint32_t kSlotsPerLevel = 1u << kLevelBits;
    static constexpr uint32_t kSlotMask = kSlotsPerLevel - 1;
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /**
     * Hot part of an arena entry: everything bucket walks, cascades and
     * ladder strips read. Its callback is cbs_[slot].
     */
    struct Slot
    {
        SimTime when = 0;
        uint64_t seq = 0;
        uint32_t next = kNoSlot; //!< intrusive bucket link
        uint32_t gen = 0;
        State state = State::kFree;
    };
    static_assert(sizeof(Slot) == 32, "hot slot must stay 32 bytes");

    /** Overflow-ladder key; comparisons never touch the slot arena. */
    struct Key
    {
        SimTime when;
        uint64_t seq;
        uint32_t slot;
    };

    struct Bucket
    {
        uint32_t head = kNoSlot;
        uint32_t tail = kNoSlot;
    };

    static EventId
    makeId(uint32_t slot, uint32_t gen)
    {
        return (static_cast<EventId>(slot) + 1) << 32 | gen;
    }

    /** Decode an id; false for kInvalidEventId and malformed handles. */
    static bool
    splitId(EventId id, uint32_t &slot, uint32_t &gen)
    {
        uint64_t hi = id >> 32;
        if (hi == 0)
            return false;
        slot = static_cast<uint32_t>(hi - 1);
        gen = static_cast<uint32_t>(id);
        return true;
    }

    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /**
     * Wheel level for an event at `when` given the cursor: the index of
     * the highest differing bit, divided by the per-level shift. kLevels
     * and above means "beyond the horizon" (ladder). Precondition:
     * when >= cur_ (both non-negative, so the casts are value-preserving).
     */
    int
    levelFor(SimTime when) const
    {
        uint64_t diff =
            static_cast<uint64_t>(when) ^ static_cast<uint64_t>(cur_);
        if (diff == 0)
            return 0;
        return (63 - std::countl_zero(diff)) / kLevelBits;
    }

    uint32_t
    allocSlot()
    {
        if (!free_.empty()) {
            uint32_t slot = free_.back();
            free_.pop_back();
            return slot;
        }
        auto slot = static_cast<uint32_t>(slots_.size());
        slots_.emplace_back();
        cbs_.emplace_back();
        return slot;
    }

    /**
     * Return a slot to the free list. Its callback is already empty:
     * cancel() reset it, or the pop moved it out.
     */
    void
    freeSlot(uint32_t slot)
    {
        Slot &s = slots_[slot];
        s.state = State::kFree;
        ++s.gen; // fired/cleaned ids mismatch from now on
        s.next = kNoSlot;
        free_.push_back(slot);
    }

    /** File `slot` into the wheel or, past the horizon, the ladder. */
    void
    place(uint32_t slot, SimTime when)
    {
        if (when < cur_) {
            ladderPush(Key{when, slots_[slot].seq, slot});
            return;
        }
        int level = levelFor(when);
        if (level >= kLevels) {
            ladderPush(Key{when, slots_[slot].seq, slot});
            return;
        }
        uint32_t b = static_cast<uint32_t>(static_cast<uint64_t>(when) >>
                                           (kLevelBits * level)) &
                     kSlotMask;
        Bucket &bucket = buckets_[level][b];
        slots_[slot].next = kNoSlot;
        if (bucket.head == kNoSlot)
            bucket.head = slot;
        else
            slots_[bucket.tail].next = slot;
        bucket.tail = slot;
        occ_[level] |= uint64_t{1} << b;
    }

    void
    ladderPush(Key key)
    {
        ladder_.push_back(key);
        size_t i = ladder_.size() - 1;
        while (i > 0) {
            size_t parent = (i - 1) / 4;
            if (!before(key, ladder_[parent]))
                break;
            ladder_[i] = ladder_[parent];
            i = parent;
        }
        ladder_[i] = key;
    }

    void
    ladderRemoveTop()
    {
        ladder_.front() = ladder_.back();
        ladder_.pop_back();
        if (ladder_.empty())
            return;
        Key key = ladder_.front();
        size_t i = 0;
        size_t n = ladder_.size();
        for (;;) {
            size_t first = i * 4 + 1;
            if (first >= n)
                break;
            size_t best = first;
            size_t last = first + 4 < n ? first + 4 : n;
            for (size_t c = first + 1; c < last; ++c) {
                if (before(ladder_[c], ladder_[best]))
                    best = c;
            }
            if (!before(ladder_[best], key))
                break;
            ladder_[i] = ladder_[best];
            i = best;
        }
        ladder_[i] = key;
    }

    /** Drop cancelled keys sitting at the top of the ladder. */
    void
    stripLadder()
    {
        while (!ladder_.empty()) {
            Slot &s = slots_[ladder_.front().slot];
            if (s.state == State::kPending)
                break;
            freeSlot(ladder_.front().slot);
            ladderRemoveTop();
        }
    }

    /** Advance the ready cursor over entries cancelled since the drain. */
    void
    stripReady()
    {
        while (ready_head_ < ready_.size()) {
            uint32_t slot = ready_[ready_head_];
            if (slots_[slot].state == State::kPending)
                break;
            freeSlot(slot);
            ++ready_head_;
        }
        if (ready_head_ == ready_.size()) {
            ready_.clear();
            ready_head_ = 0;
        }
    }

    /**
     * Move ladder entries that a cursor jump brought inside the wheel
     * horizon back into the wheel (promotion), in (when, seq) order.
     * Entries behind the cursor stay on the ladder and win pops via the
     * (when, seq) compare.
     */
    void
    promoteLadder()
    {
        for (;;) {
            stripLadder();
            if (ladder_.empty())
                break;
            const Key top = ladder_.front();
            if (top.when < cur_ || levelFor(top.when) >= kLevels)
                break;
            ladderRemoveTop();
            place(top.slot, top.when);
        }
    }

    /**
     * Find the lowest-level, lowest-index bucket holding a live entry,
     * purging dead-only buckets on the way, and the earliest live time
     * in it. Live entries at one level all share the enclosing
     * higher-level window, so slot order is time order and the first
     * live bucket holds the wheel minimum.
     */
    bool
    findMinBucket(int &level_out, uint32_t &bucket_out, SimTime &min_when)
    {
        for (int level = 0; level < kLevels; ++level) {
            uint64_t occ = occ_[level];
            while (occ != 0) {
                auto b = static_cast<uint32_t>(std::countr_zero(occ));
                if (compactBucket(level, b, min_when)) {
                    level_out = level;
                    bucket_out = b;
                    return true;
                }
                occ &= occ - 1;
            }
        }
        return false;
    }

    /**
     * Free cancelled entries in a bucket, relinking the survivors, and
     * report the earliest survivor's time in `min_when`. Clears the
     * occupancy bit and returns false when nothing live remains.
     */
    bool
    compactBucket(int level, uint32_t b, SimTime &min_when)
    {
        Bucket &bucket = buckets_[level][b];
        uint32_t head = kNoSlot;
        uint32_t tail = kNoSlot;
        uint32_t it = bucket.head;
        while (it != kNoSlot) {
            Slot &s = slots_[it];
            uint32_t next = s.next;
            if (s.state == State::kPending) {
                s.next = kNoSlot;
                if (head == kNoSlot) {
                    head = it;
                    min_when = s.when;
                } else {
                    slots_[tail].next = it;
                    if (s.when < min_when)
                        min_when = s.when;
                }
                tail = it;
            } else {
                freeSlot(it);
            }
            it = next;
        }
        bucket.head = head;
        bucket.tail = tail;
        if (head == kNoSlot) {
            occ_[level] &= ~(uint64_t{1} << b);
            return false;
        }
        return true;
    }

    /**
     * Drain the minimum bucket: advance the cursor to its earliest live
     * time `min_when`, move that time's entries into `ready_`, and
     * cascade the rest down by re-placing them against the new cursor.
     * Re-placement always lands strictly below `level` — an entry
     * sharing the minimum's level-`level` digit differs from it only in
     * lower bits. Precondition: compactBucket(level, b, min_when) just
     * returned true, and `ready_` is empty.
     *
     * `ready_` needs no sort: entries of one time meet in one bucket, in
     * schedule (seq) order. Two invariants give this.
     *  (P) Every live wheel entry sits in the bucket place() picks for
     *      it against the current cursor. A drain moves the cursor from
     *      c0 to the wheel minimum c1 and re-places the drained bucket.
     *      Any other entry E at level L shares with c0, and so with c1
     *      (c0 <= c1 <= E), every digit above L; had c1 also E's level-L
     *      digit, c1 would have sat in E's bucket, the one drained. So E
     *      keeps its bucket. A jump moves the cursor only when the wheel
     *      is empty. Hence all live wheel entries of one time share one
     *      bucket.
     *  (O) Within a bucket, entries of one time are in seq order.
     *      schedule() appends the largest seq yet. A drain re-files one
     *      bucket in list order, and by (P) no other bucket held those
     *      times. Promotion pops the ladder in (when, seq) order, and
     *      only after a jump into an empty wheel: c1 above was a wheel
     *      entry, so a drain never changes the cursor's digits above the
     *      wheel span and brings no ladder entry inside the horizon.
     *      Entries behind the cursor never enter a bucket.
     */
    void
    drainMinBucket(int level, uint32_t b, SimTime min_when)
    {
        Bucket &bucket = buckets_[level][b];
        uint32_t it = bucket.head;
        bucket.head = kNoSlot;
        bucket.tail = kNoSlot;
        occ_[level] &= ~(uint64_t{1} << b);
        if (min_when > cur_)
            cur_ = min_when;

        while (it != kNoSlot) {
            Slot &s = slots_[it];
            uint32_t next = s.next;
            s.next = kNoSlot;
            if (s.when == min_when)
                ready_.push_back(it);
            else
                place(it, s.when);
            it = next;
        }
    }

    /**
     * Bring the queue to a poppable state and report where the earliest
     * live event sits. Precondition: live_ > 0. Amortised O(1): each
     * event cascades at most kLevels times over its lifetime, and dead
     * entries are freed the first time a scan meets them.
     */
    Source
    settle()
    {
        for (;;) {
            stripReady();
            stripLadder();
            if (ready_head_ < ready_.size()) {
                // Entries scheduled after the drain share this `when`
                // only with larger seq, and live wheel entries are never
                // earlier than the drained minimum, so only the ladder
                // (events behind the cursor) can beat the ready head.
                if (ladder_.empty())
                    return Source::kReady;
                const Slot &rf = slots_[ready_[ready_head_]];
                return before(ladder_.front(),
                              Key{rf.when, rf.seq, 0})
                           ? Source::kLadder
                           : Source::kReady;
            }
            int level;
            uint32_t b;
            SimTime min_when = 0;
            if (findMinBucket(level, b, min_when)) {
                // The ladder top is either behind the cursor (wins by
                // time) or beyond the horizon (loses to any wheel
                // entry): the last jump promoted everything in between.
                if (!ladder_.empty() && ladder_.front().when < cur_)
                    return Source::kLadder;
                drainMinBucket(level, b, min_when);
                continue;
            }
            // Wheel empty: the earliest live event is on the ladder.
            if (ladder_.front().when <= cur_)
                return Source::kLadder;
            // Jump the cursor to it and pull it (and its when-group)
            // into the wheel so bucket bookkeeping stays in one place.
            cur_ = ladder_.front().when;
            promoteLadder();
        }
    }

    Bucket buckets_[kLevels][kSlotsPerLevel];
    uint64_t occ_[kLevels] = {};
    std::vector<Slot> slots_; //!< hot arena: key, link, generation
    std::vector<Callback> cbs_; //!< cold arena: cbs_[slot] is its callback
    std::vector<uint32_t> free_;
    std::vector<Key> ladder_; //!< 4-ary heap: far-future / behind-cursor
    std::vector<uint32_t> ready_; //!< current when-group, in seq order
    size_t ready_head_ = 0;
    SimTime cur_ = 0; //!< wheel cursor; trails the earliest live event
    uint64_t next_seq_ = 0;
    size_t live_ = 0;
    size_t peak_depth_ = 0;
};

} // namespace isol::sim

#endif // ISOL_SIM_EVENT_QUEUE_HH
