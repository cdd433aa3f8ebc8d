/**
 * @file
 * Unit tests for the discrete-event simulation engine and the FIFO
 * resource server built on it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"
#include "sim/fifo_server.hh"
#include "sim/simulator.hh"
#include "sim/small_function.hh"

namespace isol::sim
{
namespace
{

TEST(EventQueue, OrdersByTime)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    while (!q.empty()) {
        auto [when, cb] = q.pop();
        (void)when;
        cb();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableForEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.pop().second();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidId)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(kInvalidEventId));
    EXPECT_FALSE(q.cancel(9999));
}

TEST(EventQueue, NextTimeSkipsCancelled)
{
    EventQueue q;
    EventId early = q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.cancel(early);
    EXPECT_EQ(q.nextTime(), 20);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, EmptyNextTimeIsMax)
{
    EventQueue q;
    EXPECT_EQ(q.nextTime(), kSimTimeMax);
}

TEST(EventQueue, CancelAfterFireDoesNotLeak)
{
    // Regression for the seed implementation: cancelling an id whose
    // event already fired inserted a permanent marker into the
    // cancellation side-table (it could never match the heap top),
    // growing memory over long runs and skewing size(). The slotted
    // queue must keep size() exact and reject the stale id.
    EventQueue q;
    std::vector<EventId> fired_ids;
    for (int round = 0; round < 1000; ++round) {
        EventId id = q.schedule(round, [] {});
        ASSERT_EQ(q.size(), 1u);
        q.pop().second();
        fired_ids.push_back(id);
        EXPECT_FALSE(q.cancel(id)) << "cancel of fired id must fail";
        EXPECT_EQ(q.size(), 0u);
        EXPECT_TRUE(q.empty());
    }
    // Stale ids stay dead even after their slots are reused.
    q.schedule(5000, [] {});
    q.schedule(5001, [] {});
    EXPECT_EQ(q.size(), 2u);
    for (EventId id : fired_ids)
        EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.nextTime(), 5000);
}

TEST(EventQueue, CancelledSlotReuseKeepsIdsDistinct)
{
    EventQueue q;
    EventId a = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(a));
    // The slot is recycled eventually; the old handle must never hit
    // the new occupant.
    EventId b = q.schedule(20, [] {});
    EXPECT_FALSE(q.cancel(a));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(b));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RandomizedAgainstReferenceOrdering)
{
    // Drive the timing wheel against a std::multimap reference
    // with a schedule/pop/cancel mix; pop order must match exactly
    // (time-ordered, insertion-order tie-break). Times fall in the 64 ns
    // from the last popped one, so same-time groups are common.
    EventQueue q;
    std::multimap<std::pair<SimTime, uint64_t>, int> reference;
    Rng rng(99);
    uint64_t seq = 0;
    std::vector<std::pair<EventId, std::pair<SimTime, uint64_t>>> pending;
    int fired = 0;
    SimTime last_popped = 0;
    std::vector<int> got;
    std::vector<int> want;

    for (int step = 0; step < 5000; ++step) {
        double dice = rng.uniform();
        if (dice < 0.55 || reference.empty()) {
            auto when = last_popped + static_cast<SimTime>(rng.below(64));
            int tag = static_cast<int>(seq);
            EventId id = q.schedule(when, [tag, &got] {
                got.push_back(tag);
            });
            auto key = std::make_pair(when, seq++);
            reference.emplace(key, tag);
            pending.emplace_back(id, key);
        } else if (dice < 0.8) {
            size_t pick = rng.below(pending.size());
            EXPECT_TRUE(q.cancel(pending[pick].first));
            reference.erase(reference.find(pending[pick].second));
            pending.erase(pending.begin() +
                          static_cast<ptrdiff_t>(pick));
        } else {
            auto it = reference.begin();
            auto [when, cb] = q.pop();
            EXPECT_EQ(when, it->first.first);
            want.push_back(it->second);
            cb();
            ++fired;
            last_popped = when;
            for (size_t i = 0; i < pending.size(); ++i) {
                if (pending[i].second == it->first) {
                    pending.erase(pending.begin() +
                                  static_cast<ptrdiff_t>(i));
                    break;
                }
            }
            reference.erase(it);
        }
        ASSERT_EQ(q.size(), reference.size());
    }
    while (!reference.empty()) {
        auto it = reference.begin();
        auto [when, cb] = q.pop();
        EXPECT_EQ(when, it->first.first);
        want.push_back(it->second);
        cb();
        reference.erase(it);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(got, want);
}

TEST(EventQueue, PopIfAtOrBeforeAgainstReference)
{
    // Directed: a deadline equal to the head's time pops it, one tick
    // earlier pops nothing and leaves the queue untouched, and a cancel
    // inside a drained ready group is skipped.
    {
        EventQueue q;
        std::vector<int> order;
        std::vector<EventId> ids;
        for (int i = 0; i < 3; ++i)
            ids.push_back(
                q.schedule(100, [&order, i] { order.push_back(i); }));
        SimTime when = -1;
        SmallCallback cb;
        EXPECT_FALSE(q.popIfAtOrBefore(99, when, cb));
        EXPECT_EQ(q.size(), 3u);
        EXPECT_EQ(when, -1);
        EXPECT_FALSE(static_cast<bool>(cb));
        ASSERT_TRUE(q.popIfAtOrBefore(100, when, cb)); // drains all three
        EXPECT_EQ(when, 100);
        cb();
        EXPECT_TRUE(q.cancel(ids[1])); // sits in the ready group
        EXPECT_EQ(q.size(), 1u);
        EXPECT_FALSE(q.popIfAtOrBefore(99, when, cb));
        ASSERT_TRUE(q.popIfAtOrBefore(100, when, cb));
        cb();
        EXPECT_FALSE(q.popIfAtOrBefore(kSimTimeMax, when, cb));
        EXPECT_EQ(order, (std::vector<int>{0, 2}));
    }

    // Randomized: every pop attempt draws a deadline around the
    // reference head (at it, one tick before it, or near it), and the
    // head must pop exactly when its time is at or before the deadline.
    // Times mix tight clusters (multi-entry ready groups), wheel levels
    // 0-5, and `beyond` times 2^36 ns and more ahead, on levels 6-10.
    EventQueue q;
    std::map<std::pair<SimTime, uint64_t>, std::pair<EventId, int>>
        reference;
    Rng rng(4242);
    uint64_t seq = 0;
    SimTime cursor = 0; // latest popped time: the wheel cursor
    SimTime last_popped = -1;
    std::vector<int> got;
    std::vector<int> want;
    int at_head = 0;
    int refused = 0;
    int ready_cancels = 0;
    int beyond = 0;
    int top_level = 0;

    for (int step = 0; step < 20000; ++step) {
        double dice = rng.uniform();
        if (dice < 0.45 || reference.empty()) {
            double kind = rng.uniform();
            SimTime when;
            if (kind < 0.5) {
                when = cursor + static_cast<SimTime>(rng.below(4));
            } else if (kind < 0.75) {
                when = cursor + static_cast<SimTime>(rng.below(1 << 22));
            } else {
                // A bit from 36 to 60 puts the entry on level 6-10.
                const int bit = 36 + static_cast<int>(rng.below(25));
                when = cursor + (SimTime{1} << bit) +
                       static_cast<SimTime>(rng.below(uint64_t{1} << 30));
                ++beyond;
                top_level += bit >= 60;
            }
            int tag = static_cast<int>(seq);
            EventId id =
                q.schedule(when, [tag, &got] { got.push_back(tag); });
            reference.emplace(std::make_pair(when, seq++),
                              std::make_pair(id, tag));
        } else if (dice < 0.55) {
            // Cancel the head when it shares the last popped time (it
            // then sits in the drained ready group), else a random one.
            auto it = reference.begin();
            if (it->first.first == last_popped) {
                ++ready_cancels;
            } else {
                std::advance(it, static_cast<ptrdiff_t>(
                                     rng.below(reference.size())));
            }
            ASSERT_TRUE(q.cancel(it->second.first));
            reference.erase(it);
        } else {
            auto it = reference.begin();
            const SimTime head = it->first.first;
            double pick = rng.uniform();
            SimTime deadline;
            if (pick < 0.35)
                deadline = head;
            else if (pick < 0.6)
                deadline = head - 1;
            else
                deadline = head - 64 + static_cast<SimTime>(rng.below(128));
            SimTime when = -1;
            SmallCallback cb;
            const size_t size_before = q.size();
            const bool popped = q.popIfAtOrBefore(deadline, when, cb);
            ASSERT_EQ(popped, head <= deadline);
            if (!popped) {
                ++refused;
                ASSERT_EQ(q.size(), size_before);
                ASSERT_EQ(when, -1);
                ASSERT_FALSE(static_cast<bool>(cb));
            } else {
                at_head += deadline == head;
                ASSERT_EQ(when, head);
                want.push_back(it->second.second);
                cb();
                last_popped = when;
                cursor = std::max(cursor, when);
                reference.erase(it);
            }
        }
        ASSERT_EQ(q.size(), reference.size());
    }
    SimTime when;
    SmallCallback cb;
    while (q.popIfAtOrBefore(kSimTimeMax, when, cb)) {
        auto it = reference.begin();
        ASSERT_EQ(when, it->first.first);
        want.push_back(it->second.second);
        cb();
        reference.erase(it);
    }
    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(got, want);
    // The mix reached every case the test is meant to cover.
    EXPECT_GT(at_head, 100);
    EXPECT_GT(refused, 100);
    EXPECT_GT(ready_cancels, 10);
    EXPECT_GT(beyond, 100);
    EXPECT_GT(top_level, 10);
}

TEST(EventQueue, PeakDepthHighWaterMark)
{
    EventQueue q;
    EXPECT_EQ(q.peakDepth(), 0u);
    for (int i = 0; i < 64; ++i)
        q.schedule(i, [] {});
    while (!q.empty())
        q.pop().second();
    EXPECT_EQ(q.peakDepth(), 64u);
    q.schedule(64, [] {});
    EXPECT_EQ(q.peakDepth(), 64u); // high-water mark, not current depth
}

TEST(EventQueue, FarFutureOverflowLadderRoundTrip)
{
    // Events past 2^36 ns sit on the upper wheel levels (6-10) and
    // cascade down as the cursor reaches their window. The pop order
    // must be indistinguishable from a plain sorted queue.
    EventQueue q;
    std::vector<int> order;
    const SimTime far = SimTime{1} << 40; // beyond the 2^36 ns span
    q.schedule(2 * far, [&] { order.push_back(4); });
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(far, [&] { order.push_back(2); });
    q.schedule(far, [&] { order.push_back(3); }); // tie: insertion order
    q.schedule(3 * far, [&] { order.push_back(5); });
    EXPECT_EQ(q.size(), 5u);
    EXPECT_EQ(q.nextTime(), 100);
    while (!q.empty())
        q.pop().second();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueueDeathTest, ScheduleBeforeLastPopPanics)
{
    // The wheel cursor sits at the last popped time and every bucket
    // lies at or after it, so an earlier time has no bucket: schedule()
    // panics instead. The last popped time itself is still allowed.
    EventQueue q;
    q.schedule(1000, [] {});
    auto [when, cb] = q.pop();
    EXPECT_EQ(when, 1000);
    cb();
    q.schedule(1000, [] {});
    EXPECT_DEATH(q.schedule(999, [] {}), "before the last pop");
    EXPECT_EQ(q.pop().first, 1000);
}

TEST(EventQueueDeathTest, ScheduleEmptyCallbackPanics)
{
    // A slot is pending exactly when it holds a callback, so an empty
    // one would read as already cancelled: schedule() refuses it.
    EventQueue q;
    EXPECT_DEATH(q.schedule(10, SmallCallback{}), "empty callback");
    Simulator sim;
    EXPECT_DEATH(sim.after(10, SmallCallback{}), "empty callback");
    EXPECT_TRUE(q.empty());
}

/** Counts the moves of a callable and how often it ran. */
struct MoveCounter
{
    int *moves;
    int *runs;

    MoveCounter(int *m, int *r) : moves(m), runs(r) {}
    MoveCounter(MoveCounter &&other) noexcept
        : moves(other.moves), runs(other.runs)
    {
        ++*moves;
    }
    MoveCounter(const MoveCounter &) = delete;
    MoveCounter &operator=(const MoveCounter &) = delete;
    MoveCounter &operator=(MoveCounter &&) = delete;

    void operator()() { ++*runs; }
};

TEST(EventQueue, ScheduleConstructsCallableInPlace)
{
    // The temporary is moved once, into its slot, whether it comes
    // through the queue or the simulator; the pop moves it out once.
    int moves = 0;
    int runs = 0;
    EventQueue q;
    q.schedule(10, MoveCounter(&moves, &runs));
    EXPECT_EQ(moves, 1);
    SimTime when = 0;
    SmallCallback cb;
    ASSERT_TRUE(q.popIfAtOrBefore(10, when, cb));
    EXPECT_EQ(moves, 2);
    cb();
    EXPECT_EQ(runs, 1);

    // One event at a time, so no arena growth relocates a pending one.
    moves = 0;
    Simulator sim;
    sim.after(10, MoveCounter(&moves, &runs));
    EXPECT_EQ(moves, 1);
    sim.runAll();
    EXPECT_EQ(moves, 2);
    sim.at(20, MoveCounter(&moves, &runs));
    EXPECT_EQ(moves, 3);
    sim.runAll();
    EXPECT_EQ(moves, 4);
    EXPECT_EQ(runs, 3);
}

TEST(EventQueue, ArenaGrowthRelocatesNonTrivialCaptures)
{
    // Enough events to reallocate the arena many times over while every
    // slot holds a shared_ptr capture: each fires once, in (time,
    // schedule) order, and every reference is released.
    constexpr int kEvents = 3000;
    auto token = std::make_shared<int>(0);
    EventQueue q;
    std::vector<std::pair<SimTime, int>> want;
    std::vector<std::pair<SimTime, int>> got;
    for (int i = 0; i < kEvents; ++i) {
        SimTime when = (static_cast<SimTime>(i) * 7919) % 613;
        want.emplace_back(when, i);
        q.schedule(when, [token, when, i, &got] {
            ++*token;
            got.emplace_back(when, i);
        });
    }
    EXPECT_EQ(token.use_count(), kEvents + 1);
    std::stable_sort(want.begin(), want.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    while (!q.empty()) {
        auto [when, cb] = q.pop();
        cb();
        EXPECT_EQ(got.back().first, when);
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(*token, kEvents);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, CancelAfterGrowthReleasesCapture)
{
    // A pending capture relocated by arena growth is still released by
    // its cancel, at once; its neighbours keep theirs until they fire.
    auto cancelled = std::make_shared<int>(0);
    auto kept = std::make_shared<int>(0);
    EventQueue q;
    EventId id = q.schedule(50, [cancelled] { ++*cancelled; });
    for (int i = 0; i < 2000; ++i)
        q.schedule(i % 100, [kept] { ++*kept; });
    EXPECT_EQ(cancelled.use_count(), 2);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(cancelled.use_count(), 1);
    EXPECT_EQ(kept.use_count(), 2001);
    while (!q.empty())
        q.pop().second();
    EXPECT_EQ(*cancelled, 0);
    EXPECT_EQ(*kept, 2000);
    EXPECT_EQ(kept.use_count(), 1);
}

TEST(EventQueue, MaxHorizonEvent)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(kSimTimeMax, [&] { order.push_back(2); });
    q.schedule(0, [&] { order.push_back(1); });
    EXPECT_EQ(q.nextTime(), 0);
    auto first = q.pop();
    EXPECT_EQ(first.first, 0);
    first.second();
    EXPECT_EQ(q.nextTime(), kSimTimeMax);
    auto last = q.pop();
    EXPECT_EQ(last.first, kSimTimeMax);
    last.second();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeExactUnderWheelAndLadderCancels)
{
    // size() must track live events exactly, whether the cancelled
    // entry sits in a low or a high wheel level or in the ready list.
    EventQueue q;
    const SimTime far = SimTime{1} << 45;
    std::vector<EventId> near_ids;
    std::vector<EventId> far_ids;
    for (int i = 0; i < 16; ++i)
        near_ids.push_back(q.schedule(10 + i, [] {}));
    for (int i = 0; i < 16; ++i)
        far_ids.push_back(q.schedule(far + i, [] {}));
    EXPECT_EQ(q.size(), 32u);
    for (int i = 0; i < 16; i += 2) {
        EXPECT_TRUE(q.cancel(near_ids[static_cast<size_t>(i)]));
        EXPECT_TRUE(q.cancel(far_ids[static_cast<size_t>(i)]));
    }
    EXPECT_EQ(q.size(), 16u);
    size_t popped = 0;
    while (!q.empty()) {
        q.pop().second();
        ++popped;
        EXPECT_EQ(q.size(), 16u - popped);
    }
    EXPECT_EQ(popped, 16u);
}

TEST(EventQueue, FiredSlotReuseKeepsIdsDistinct)
{
    // After an event fires, its slot is recycled with a new generation:
    // the stale id must not cancel the slot's next occupant.
    EventQueue q;
    EventId a = q.schedule(1, [] {});
    q.pop().second(); // fire a
    bool ran = false;
    EventId b = q.schedule(2, [&] { ran = true; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a)); // stale id: fired long ago
    EXPECT_EQ(q.size(), 1u);
    q.pop().second();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RandomizedWideHorizonsAgainstReference)
{
    // Same reference check as above, but with bimodal horizons spanning
    // wheel levels 0-6, so cascades are on the hot path of the test.
    EventQueue q;
    std::multimap<std::pair<SimTime, uint64_t>, int> reference;
    Rng rng(1234);
    uint64_t seq = 0;
    std::vector<std::pair<EventId, std::pair<SimTime, uint64_t>>> pending;
    SimTime now = 0;
    std::vector<int> got;
    std::vector<int> want;

    for (int step = 0; step < 8000; ++step) {
        double dice = rng.uniform();
        if (dice < 0.5 || reference.empty()) {
            uint64_t horizon;
            double kind = rng.uniform();
            if (kind < 0.7)
                horizon = rng.below(4096); // short, clustered
            else if (kind < 0.9)
                horizon = rng.below(uint64_t{1} << 22); // mid-level
            else
                horizon = rng.below(uint64_t{1} << 40); // up to level 6
            auto when = now + static_cast<SimTime>(horizon);
            int tag = static_cast<int>(seq);
            EventId id =
                q.schedule(when, [tag, &got] { got.push_back(tag); });
            auto key = std::make_pair(when, seq++);
            reference.emplace(key, tag);
            pending.emplace_back(id, key);
        } else if (dice < 0.65) {
            size_t pick = rng.below(pending.size());
            EXPECT_TRUE(q.cancel(pending[pick].first));
            reference.erase(reference.find(pending[pick].second));
            pending.erase(pending.begin() +
                          static_cast<ptrdiff_t>(pick));
        } else {
            auto it = reference.begin();
            auto [when, cb] = q.pop();
            ASSERT_EQ(when, it->first.first);
            now = when;
            want.push_back(it->second);
            cb();
            for (size_t i = 0; i < pending.size(); ++i) {
                if (pending[i].second == it->first) {
                    pending.erase(pending.begin() +
                                  static_cast<ptrdiff_t>(i));
                    break;
                }
            }
            reference.erase(it);
        }
        ASSERT_EQ(q.size(), reference.size());
    }
    while (!reference.empty()) {
        auto it = reference.begin();
        auto [when, cb] = q.pop();
        ASSERT_EQ(when, it->first.first);
        want.push_back(it->second);
        cb();
        reference.erase(it);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(got, want);
}

TEST(EventQueue, SameTimeGroupsKeepScheduleOrderOnEveryPath)
{
    // The queue hands out a same-time group in bucket order, unsorted,
    // so every way an entry reaches a bucket must keep such a group in
    // schedule order. Each group below is interleaved with other times;
    // a std::multimap keyed by time alone is the reference, since it
    // keeps equal keys in insertion order.
    EventQueue q;
    std::multimap<SimTime, int> reference;
    std::vector<int> got;
    std::vector<int> want;
    int next_tag = 0;
    auto add = [&](SimTime when) {
        int tag = next_tag++;
        q.schedule(when, [tag, &got] { got.push_back(tag); });
        reference.emplace(when, tag);
    };
    auto popOne = [&] {
        auto [when, cb] = q.pop();
        ASSERT_EQ(when, reference.begin()->first);
        want.push_back(reference.begin()->second);
        reference.erase(reference.begin());
        cb();
    };
    auto popThrough = [&](SimTime until) {
        while (!reference.empty() && reference.begin()->first <= until)
            popOne();
    };
    auto levelTime = [](int level) {
        return (SimTime{3} << (6 * level)) + 100 * level;
    };

    // Direct placement at wheel levels 0-10 (cursor at 0), three members
    // per group; every group above level 0 later cascades down.
    for (int member = 0; member < 3; ++member) {
        for (int level = 0; level < 11; ++level) {
            add(levelTime(level));
            add(levelTime(level) + 1);
        }
    }
    // An opener in the level-5 group's bucket: draining it cascades the
    // group to a lower level, where two more members then land directly.
    const SimTime opener = levelTime(5) - 60;
    add(opener);
    // Far groups on level 9: `far` and `far + 7` share a bucket,
    // `farther` has its own.
    const SimTime far = SimTime{5} << 54;
    const SimTime farther = far + (SimTime{1} << 58);
    for (int member = 0; member < 3; ++member) {
        add(far + 7);
        add(far);
        add(farther);
    }

    popThrough(opener);
    add(levelTime(5));
    add(levelTime(5));
    popThrough(levelTime(5) + 1);

    // Draining `far`'s bucket cascades the `far + 7` group to level 0,
    // where two more members then land directly.
    popThrough(far);
    add(far + 7);
    add(far + 7);
    popThrough(far + 7);

    // At the cursor: once a pop has drained a group into the ready list,
    // later members of the same time land in a bucket and pop after it.
    for (int member = 0; member < 3; ++member) {
        add(far + 7);
        add(far + 9);
        add(farther);
    }
    popOne();
    add(far + 7);
    add(far + 7);
    popThrough(kSimTimeMax);

    EXPECT_TRUE(q.empty());
    EXPECT_EQ(got, want);
    EXPECT_EQ(got.size(), static_cast<size_t>(next_tag));
}

TEST(SmallCallback, InlineCaptureInvokes)
{
    int hits = 0;
    uint64_t id = 42;
    SmallCallback cb([&hits, id] { hits += static_cast<int>(id); });
    ASSERT_TRUE(static_cast<bool>(cb));
    cb();
    EXPECT_EQ(hits, 42);
}

TEST(SmallCallback, OversizedCaptureFallsBackToHeap)
{
    struct Big
    {
        char pad[200];
        int *counter;
    };
    int hits = 0;
    Big big{};
    big.counter = &hits;
    static_assert(sizeof(Big) > SmallCallback::kInlineBytes);
    SmallCallback cb([big] { ++*big.counter; });
    cb();
    cb();
    EXPECT_EQ(hits, 2);
}

TEST(SmallCallback, MoveTransfersOwnership)
{
    auto counter = std::make_shared<int>(0);
    SmallCallback a([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    SmallCallback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    b();
    EXPECT_EQ(*counter, 1);
    b = SmallCallback();
    EXPECT_EQ(counter.use_count(), 1); // capture destroyed on reset
}

TEST(SmallCallback, CancelReleasesCapturedResources)
{
    auto counter = std::make_shared<int>(0);
    EventQueue q;
    EventId id = q.schedule(10, [counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    q.cancel(id);
    // O(1) cancel destroys the callback in place, not lazily at pop.
    EXPECT_EQ(counter.use_count(), 1);
}

TEST(Simulator, ClockAdvances)
{
    Simulator sim;
    SimTime seen = -1;
    sim.at(100, [&] { seen = sim.now(); });
    sim.runAll();
    EXPECT_EQ(seen, 100);
    EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, AfterIsRelative)
{
    Simulator sim;
    std::vector<SimTime> times;
    sim.at(50, [&] {
        sim.after(25, [&] { times.push_back(sim.now()); });
    });
    sim.runAll();
    ASSERT_EQ(times.size(), 1u);
    EXPECT_EQ(times[0], 75);
}

TEST(EventQueue, ConstInspection)
{
    EventQueue q;
    const EventQueue &cq = q;
    EXPECT_TRUE(cq.empty());
    EventId id = q.schedule(5, [] {});
    EXPECT_FALSE(cq.empty());
    EXPECT_EQ(cq.nextTime(), 5);
    q.cancel(id);
    EXPECT_TRUE(cq.empty()); // skips the cancelled top, still const
}

TEST(Simulator, IdleIsConst)
{
    Simulator sim;
    const Simulator &csim = sim;
    EXPECT_TRUE(csim.idle());
    sim.at(10, [] {});
    EXPECT_FALSE(csim.idle());
}

TEST(Simulator, RunAllEventStormLimitThrows)
{
    Simulator sim;
    std::function<void()> storm = [&] { sim.after(1, storm); };
    sim.after(0, storm);
    EXPECT_THROW(sim.runAll(1000), FatalError);
}

TEST(Simulator, RunAllLimitAllowsBoundedWork)
{
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        sim.at(i, [&] { ++fired; });
    sim.runAll(100); // limit far above the event count: no throw
    EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilStopsAtDeadline)
{
    Simulator sim;
    int fired = 0;
    sim.at(10, [&] { ++fired; });
    sim.at(20, [&] { ++fired; });
    sim.at(30, [&] { ++fired; });
    sim.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), 20);
    sim.runAll();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, ScheduleBetweenClockAndRefusedHead)
{
    // runUntil() ends on a refused pop of the event at 100. That pop
    // must not move the queue past the clock: an event scheduled in
    // between still fires first.
    Simulator sim;
    std::vector<SimTime> times;
    sim.at(100, [&] { times.push_back(sim.now()); });
    sim.runUntil(50);
    EXPECT_EQ(sim.now(), 50);
    sim.at(60, [&] { times.push_back(sim.now()); });
    sim.runAll();
    EXPECT_EQ(times, (std::vector<SimTime>{60, 100}));
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle)
{
    Simulator sim;
    sim.runUntil(msToNs(5));
    EXPECT_EQ(sim.now(), msToNs(5));
}

TEST(Simulator, EventsExecutedCounter)
{
    Simulator sim;
    for (int i = 0; i < 5; ++i)
        sim.at(i, [] {});
    sim.runAll();
    EXPECT_EQ(sim.eventsExecuted(), 5u);
}

TEST(Simulator, CascadingEvents)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            sim.after(1, chain);
    };
    sim.after(1, chain);
    sim.runAll();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, StepReturnsFalseWhenIdle)
{
    Simulator sim;
    EXPECT_FALSE(sim.step());
    sim.at(5, [] {});
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

TEST(Simulator, CancelPendingEvent)
{
    Simulator sim;
    bool fired = false;
    EventId id = sim.at(10, [&] { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    sim.runAll();
    EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilDestroysCapturesBeforeNextEvent)
{
    // An event's captures are destroyed when it returns, before the next
    // event is chosen, whichever entry point drives the loop. A capture
    // whose destructor schedules work at the current time (C) therefore
    // runs ahead of a later event (B), never behind it.
    struct Guard
    {
        std::vector<std::string> *log;
        Simulator *reschedule_on; //!< schedules C when non-null
        Guard(std::vector<std::string> *l, Simulator *s)
            : log(l), reschedule_on(s)
        {
        }
        Guard(Guard &&other) noexcept
            : log(std::exchange(other.log, nullptr)),
              reschedule_on(other.reschedule_on)
        {
        }
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;
        Guard &operator=(Guard &&) = delete;
        ~Guard()
        {
            if (log == nullptr)
                return;
            log->push_back("A-destroyed");
            if (reschedule_on != nullptr) {
                reschedule_on->at(reschedule_on->now(), [l = log] {
                    l->push_back("C-fired");
                });
            }
        }
    };
    using Log = std::vector<std::string>;
    for (bool reschedule : {false, true}) {
        for (SimTime b_at : {SimTime{10}, SimTime{20}}) {
            Log expected{"A-fired", "A-destroyed", "B-fired"};
            if (reschedule) {
                expected.insert(b_at == 10 ? expected.end()
                                           : expected.end() - 1,
                                "C-fired");
            }
            for (int driver = 0; driver < 3; ++driver) {
                Simulator sim;
                Log log;
                sim.at(10, [g = Guard(&log, reschedule ? &sim : nullptr)] {
                    g.log->push_back("A-fired");
                });
                sim.at(b_at, [&log] { log.push_back("B-fired"); });
                if (driver == 0) {
                    sim.runUntil(100);
                } else if (driver == 1) {
                    sim.runAll();
                } else {
                    while (sim.step()) {
                    }
                }
                EXPECT_EQ(log, expected)
                    << "driver " << driver << ", B at " << b_at
                    << ", reschedule " << reschedule;
            }
        }
    }
}

TEST(PeriodicTimer, FiresEveryPeriod)
{
    Simulator sim;
    std::vector<SimTime> fires;
    PeriodicTimer timer(sim, 100, [&] { fires.push_back(sim.now()); });
    timer.start();
    sim.runUntil(350);
    EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 300}));
}

TEST(PeriodicTimer, StopCeasesFiring)
{
    Simulator sim;
    int fires = 0;
    PeriodicTimer timer(sim, 100, [&] { ++fires; });
    timer.start();
    sim.at(250, [&] { timer.stop(); });
    sim.runUntil(1000);
    EXPECT_EQ(fires, 2);
    EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, RestartAfterStop)
{
    Simulator sim;
    int fires = 0;
    PeriodicTimer timer(sim, 100, [&] { ++fires; });
    timer.start();
    sim.runUntil(150);
    timer.stop();
    timer.start();
    sim.runUntil(450);
    // One fire at t=100, then restart at t=150 -> fires at 250, 350, 450.
    EXPECT_EQ(fires, 4);
}

TEST(PeriodicTimer, StopFromInsideCallback)
{
    Simulator sim;
    int fires = 0;
    PeriodicTimer timer(sim, 100, [&] {
        if (++fires == 2)
            timer.stop();
    });
    timer.start();
    sim.runUntil(10000);
    EXPECT_EQ(fires, 2);
}

TEST(PeriodicTimer, StartIsIdempotent)
{
    Simulator sim;
    int fires = 0;
    PeriodicTimer timer(sim, 100, [&] { ++fires; });
    timer.start();
    timer.start();
    sim.runUntil(100);
    EXPECT_EQ(fires, 1);
}

TEST(FifoServer, ServesSerially)
{
    Simulator sim;
    FifoServer server(sim);
    std::vector<SimTime> done;
    server.enqueue(100, [&] { done.push_back(sim.now()); });
    server.enqueue(50, [&] { done.push_back(sim.now()); });
    sim.runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], 100);
    EXPECT_EQ(done[1], 150); // waits for the first job
}

TEST(FifoServer, IdleGapsDoNotAccumulate)
{
    Simulator sim;
    FifoServer server(sim);
    SimTime second_done = 0;
    server.enqueue(10, [] {});
    sim.at(1000, [&] {
        server.enqueue(10, [&] { second_done = sim.now(); });
    });
    sim.runAll();
    EXPECT_EQ(second_done, 1010); // starts fresh after the idle gap
    EXPECT_EQ(server.busyNs(), 20);
    EXPECT_EQ(server.jobs(), 2u);
}

TEST(FifoServer, BacklogReporting)
{
    Simulator sim;
    FifoServer server(sim);
    EXPECT_FALSE(server.busy());
    EXPECT_EQ(server.backlog(), 0);
    server.enqueue(100, [] {});
    EXPECT_TRUE(server.busy());
    EXPECT_EQ(server.backlog(), 100);
}

TEST(FifoServer, BookMatchesEnqueueWithoutAnEvent)
{
    Simulator booked_sim;
    Simulator queued_sim;
    FifoServer booked(booked_sim);
    FifoServer queued(queued_sim);
    for (SimTime service : {100, 0, 50}) {
        EXPECT_EQ(booked.book(service), queued.enqueue(service, [] {}));
        EXPECT_EQ(booked.busyUntil(), queued.busyUntil());
    }
    EXPECT_TRUE(booked_sim.idle());
    EXPECT_EQ(booked.busyNs(), queued.busyNs());
    EXPECT_EQ(booked.jobs(), queued.jobs());
    EXPECT_EQ(booked.backlog(), 150);
    // A job booked after an idle gap starts fresh, like an enqueued one.
    booked_sim.at(1000, [&] { EXPECT_EQ(booked.book(10), 1010); });
    booked_sim.runAll();
    EXPECT_EQ(booked.busyNs(), 160);
    EXPECT_EQ(booked.jobs(), 4u);
}

} // namespace
} // namespace isol::sim
