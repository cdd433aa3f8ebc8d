/**
 * @file
 * Discrete-event queue: the heart of the simulator.
 *
 * Events are (time, callback) pairs ordered by time and, for equal
 * times, by schedule order so simulations are fully deterministic.
 *
 * Layout: a hierarchical timing wheel (11 levels x 64 slots, 1 ns tick)
 * over a slot arena. 64^11 > 2^63, so every SimTime has a bucket and the
 * wheel is the only structure. Schedule and cancel are O(1); pop is
 * amortised O(1) for the clustered short-horizon timers that dominate
 * this DES. Wheel buckets are intrusive singly-linked lists through the
 * arena, with one 64-bit occupancy bitmap per level, so finding the next
 * bucket is a couple of ctz instructions. The arena is split hot and
 * cold: the 24-byte slots that bucket walks and cascades touch hold only
 * the time, the link and the generation tag, and the callbacks live in
 * a parallel vector that only schedule, cancel and pop touch.
 *
 * The wheel cursor is the time of the last pop. A pop finds the minimum
 * bucket and its earliest live time, and only when that time is due does
 * it move the cursor there, drain that time's entries, in list order,
 * into a `ready_` list and cascade the rest of the bucket down. List
 * order is schedule order within one time (see drainMinBucket()), so
 * the pop order is exactly the (time, schedule order) order of a
 * comparison-based queue, byte for byte, and no sequence number is kept.
 *
 * Slots carry generation tags, so an EventId is (slot, generation) and
 * cancellation is O(1): validate the tag, destroy the callback in place,
 * and let the dead entry fall out lazily when its bucket is next
 * visited. There is no side table — cancelling an id that already fired
 * is a tag mismatch, not a leaked marker — and `size()` is an exact live
 * count. Callbacks use SmallCallback so the pointer+id captures the
 * simulator schedules by the million never allocate.
 */

#ifndef ISOL_SIM_EVENT_QUEUE_HH
#define ISOL_SIM_EVENT_QUEUE_HH

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
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
 * the clock. The wheel cursor is the time of the last pop, which never
 * runs ahead of the simulator clock, and schedule() panics on a time
 * before it.
 */
class EventQueue
{
  public:
    using Callback = SmallCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule `cb` to fire at absolute time `when`, which must not be
     * earlier than the last popped time.
     */
    EventId
    schedule(SimTime when, Callback cb)
    {
        if (when < cur_)
            panic("EventQueue::schedule: time before the last pop");
        uint32_t slot = allocSlot();
        cbs_[slot] = std::move(cb);
        Slot &s = slots_[slot];
        s.when = when;
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
        // is dropped lazily when it is next visited.
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
        // Logically const: finding the head only frees dead entries.
        int level = -1;
        uint32_t b = 0;
        return const_cast<EventQueue *>(this)->findHead(level, b);
    }

    /**
     * Pop the earliest live event if it is due at or before `deadline`:
     * store its time in `when`, move its callback into `cb`, and return
     * true. Returns false, leaving the queue's live events and `cb`
     * untouched, when the queue is empty or its head is later than
     * `deadline`; a refused pop moves no live entry and not the cursor.
     */
    bool
    popIfAtOrBefore(SimTime deadline, SimTime &when, Callback &cb)
    {
        if (live_ == 0)
            return false;
        int level = -1;
        uint32_t b = 0;
        const SimTime head = findHead(level, b);
        if (head > deadline)
            return false;
        if (level >= 0)
            drainMinBucket(level, b, head);
        uint32_t slot = ready_[ready_head_++];
        when = head;
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

    static constexpr int kLevelBits = 6; //!< 64 slots per level
    static constexpr int kLevels = 11; //!< 64^11 > 2^63: all of SimTime
    static constexpr uint32_t kSlotsPerLevel = 1u << kLevelBits;
    static constexpr uint32_t kSlotMask = kSlotsPerLevel - 1;
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /**
     * Hot part of an arena entry: everything bucket walks and cascades
     * read. Its callback is cbs_[slot].
     */
    struct Slot
    {
        SimTime when = 0;
        uint32_t next = kNoSlot; //!< intrusive bucket link
        uint32_t gen = 0;
        State state = State::kFree;
    };
    static_assert(sizeof(Slot) == 24, "hot slot must stay 24 bytes");

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

    /**
     * Wheel level for an event at `when` given the cursor: the index of
     * the highest differing bit, divided by the per-level shift; at most
     * 62 / 6 = 10. Precondition: when >= cur_ (both non-negative, so the
     * casts are value-preserving).
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

    /** File `slot` into the bucket its time has against the cursor. */
    void
    place(uint32_t slot, SimTime when)
    {
        int level = levelFor(when);
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
     * Time of the earliest live event, freeing dead entries on the way.
     * `level` is -1 when the event heads `ready_`. Otherwise it sits in
     * bucket (`level`, `b`), the lowest-level, lowest-index bucket with a
     * live entry, which is not drained yet: live entries at one level
     * all share the enclosing higher-level window, so slot order is time
     * order and the first live bucket holds the minimum. A live ready
     * head is the minimum: no live entry is earlier than the cursor, and
     * entries scheduled at the cursor after the drain come after it.
     * Precondition: live_ > 0.
     */
    SimTime
    findHead(int &level, uint32_t &b)
    {
        stripReady();
        if (ready_head_ < ready_.size()) {
            level = -1;
            return slots_[ready_[ready_head_]].when;
        }
        SimTime min_when = kSimTimeMax;
        for (level = 0; level < kLevels; ++level) {
            uint64_t occ = occ_[level];
            while (occ != 0) {
                b = static_cast<uint32_t>(std::countr_zero(occ));
                if (compactBucket(level, b, min_when))
                    return min_when;
                occ &= occ - 1;
            }
        }
        panic("EventQueue: live count without a live entry");
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
     * schedule order. Two invariants give this.
     *  (P) Every live entry sits in the bucket place() picks for it
     *      against the current cursor. Only a drain moves the cursor: from
     *      c0 to the minimum c1, and it re-places the drained bucket.
     *      Any other entry E at level L shares with c0, and so with c1
     *      (c0 <= c1 <= E), every digit above L; had c1 also E's level-L
     *      digit, c1 would have sat in E's bucket, the one drained. So E
     *      keeps its bucket. Hence all live entries of one time share
     *      one bucket.
     *  (O) Within a bucket, entries of one time are in schedule order.
     *      schedule() appends at the tail, and a drain re-files one
     *      bucket in list order while, by (P), no other bucket held
     *      those times.
     */
    void
    drainMinBucket(int level, uint32_t b, SimTime min_when)
    {
        Bucket &bucket = buckets_[level][b];
        uint32_t it = bucket.head;
        bucket.head = kNoSlot;
        bucket.tail = kNoSlot;
        occ_[level] &= ~(uint64_t{1} << b);
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

    Bucket buckets_[kLevels][kSlotsPerLevel];
    uint64_t occ_[kLevels] = {};
    std::vector<Slot> slots_; //!< hot arena: time, link, generation
    std::vector<Callback> cbs_; //!< cold arena: cbs_[slot] is its callback
    std::vector<uint32_t> free_;
    std::vector<uint32_t> ready_; //!< current when-group, in schedule order
    size_t ready_head_ = 0;
    SimTime cur_ = 0; //!< wheel cursor: the time of the last pop
    size_t live_ = 0;
    size_t peak_depth_ = 0;
};

} // namespace isol::sim

#endif // ISOL_SIM_EVENT_QUEUE_HH
