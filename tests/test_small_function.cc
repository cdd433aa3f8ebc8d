/**
 * @file
 * Direct edge-case coverage for sim::SmallCallback, the DES hot-path
 * callback type: inline vs heap storage selection, move-only captures,
 * self-move, over-aligned callables, exact construction/destruction
 * counts on both storage paths, and the memcpy relocation of trivially
 * copyable callables.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/small_function.hh"

namespace isol::sim
{
namespace
{

/** Tracks every special-member call of its instances. */
struct Tally
{
    int constructed = 0;
    int destroyed = 0;
    int moves = 0;
};

struct Tracked
{
    Tally *tally;
    int *hits;

    Tracked(Tally *t, int *h) : tally(t), hits(h) { ++tally->constructed; }
    Tracked(Tracked &&other) noexcept
        : tally(other.tally), hits(other.hits)
    {
        ++tally->constructed;
        ++tally->moves;
    }
    Tracked(const Tracked &) = delete;
    Tracked &operator=(const Tracked &) = delete;
    Tracked &operator=(Tracked &&) = delete;
    ~Tracked() { ++tally->destroyed; }

    void operator()() { ++*hits; }
};

/** Same tracking, padded past the inline buffer → heap path. */
struct BigTracked : Tracked
{
    unsigned char pad[SmallCallback::kInlineBytes + 16];

    BigTracked(Tally *t, int *h) : Tracked(t, h), pad{} {}
};

// 40 inline bytes and the ops pointer: with the 16-byte event header an
// event-queue slot is exactly one 64-byte line.
static_assert(SmallCallback::kInlineBytes == 40);
static_assert(sizeof(SmallCallback) == 48);

static_assert(sizeof(Tracked) <= SmallCallback::kInlineBytes,
              "Tracked must exercise the inline path");
static_assert(sizeof(BigTracked) > SmallCallback::kInlineBytes,
              "BigTracked must exercise the heap path");

TEST(SmallCallback, EmptyStates)
{
    SmallCallback cb;
    EXPECT_FALSE(cb);
    SmallCallback null_cb(nullptr);
    EXPECT_FALSE(null_cb);

    SmallCallback moved_to(std::move(cb));
    EXPECT_FALSE(moved_to);
}

TEST(SmallCallback, OversizedCallableInvokesCorrectly)
{
    Tally tally;
    int hits = 0;
    {
        SmallCallback cb{BigTracked(&tally, &hits)};
        ASSERT_TRUE(cb);
        cb();
        cb();
    }
    EXPECT_EQ(hits, 2);
    EXPECT_EQ(tally.destroyed, tally.constructed);
}

TEST(SmallCallback, InlineDestructionCountsBalance)
{
    Tally tally;
    int hits = 0;
    {
        SmallCallback cb{Tracked(&tally, &hits)};
        cb();
    }
    EXPECT_EQ(hits, 1);
    EXPECT_GT(tally.constructed, 0);
    EXPECT_EQ(tally.destroyed, tally.constructed);
}

TEST(SmallCallback, HeapDestructionCountsBalance)
{
    Tally tally;
    int hits = 0;
    {
        SmallCallback cb{BigTracked(&tally, &hits)};
        // One live instance inside cb, everything else torn down.
        EXPECT_EQ(tally.constructed - tally.destroyed, 1);
    }
    EXPECT_EQ(tally.destroyed, tally.constructed);
}

TEST(SmallCallback, MoveTransfersInlineCallableExactlyOnce)
{
    Tally tally;
    int hits = 0;
    SmallCallback a{Tracked(&tally, &hits)};
    SmallCallback b(std::move(a));
    EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move): asserting state
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);

    int live = tally.constructed - tally.destroyed;
    EXPECT_EQ(live, 1); // exactly the instance inside b
    b.reset();
    EXPECT_EQ(tally.destroyed, tally.constructed);
}

TEST(SmallCallback, MoveOfHeapCallableStealsPointer)
{
    Tally tally;
    int hits = 0;
    SmallCallback a{BigTracked(&tally, &hits)};
    int constructed_before = tally.constructed;

    SmallCallback b(std::move(a));
    // Heap path moves the owning pointer, never the callable itself.
    EXPECT_EQ(tally.constructed, constructed_before);
    EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move): asserting state
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);
    b.reset();
    EXPECT_EQ(tally.destroyed, tally.constructed);
}

TEST(SmallCallback, MoveOnlyCaptureWorks)
{
    auto owned = std::make_unique<int>(41);
    int out = 0;
    SmallCallback cb{[p = std::move(owned), &out] { out = *p + 1; }};
    ASSERT_TRUE(cb);
    cb();
    EXPECT_EQ(out, 42);
}

TEST(SmallCallback, SelfMoveAssignmentKeepsCallable)
{
    int hits = 0;
    SmallCallback cb{[&hits] { ++hits; }};
    SmallCallback &alias = cb;
    cb = std::move(alias);
    ASSERT_TRUE(cb);
    cb();
    EXPECT_EQ(hits, 1);
}

TEST(SmallCallback, MoveAssignmentDestroysPreviousCallable)
{
    Tally old_tally;
    Tally new_tally;
    int old_hits = 0;
    int new_hits = 0;

    SmallCallback cb{Tracked(&old_tally, &old_hits)};
    cb = SmallCallback{Tracked(&new_tally, &new_hits)};
    // The original callable was destroyed by the assignment...
    EXPECT_EQ(old_tally.destroyed, old_tally.constructed);
    // ...and the new one is the live target.
    cb();
    EXPECT_EQ(old_hits, 0);
    EXPECT_EQ(new_hits, 1);
}

TEST(SmallCallback, OverAlignedCallableFallsBackToHeap)
{
    struct alignas(64) OverAligned
    {
        int *out;
        void operator()() { *out = 7; }
    };
    static_assert(alignof(OverAligned) > alignof(std::max_align_t));

    int out = 0;
    SmallCallback cb{OverAligned{&out}};
    ASSERT_TRUE(cb);
    cb();
    EXPECT_EQ(out, 7);
}

TEST(SmallCallback, ExactBufferSizeCallableStaysUsable)
{
    struct Exact
    {
        unsigned char payload[SmallCallback::kInlineBytes - sizeof(int *)];
        int *out;
        void operator()() { *out = static_cast<int>(payload[0]) + 9; }
    };
    static_assert(sizeof(Exact) == SmallCallback::kInlineBytes);

    int out = 0;
    Exact fn{};
    fn.out = &out;
    SmallCallback cb{std::move(fn)};
    cb();
    EXPECT_EQ(out, 9);
}

TEST(SmallCallback, TriviallyCopyableFullBufferSurvivesMoves)
{
    // Fills the whole inline buffer, so the memcpy relocation must carry
    // every byte: move-construct, move-assign over a live callable, and
    // self-move, then check the payload bit for bit.
    struct Full
    {
        unsigned char payload[SmallCallback::kInlineBytes - sizeof(int *)];
        int *out;
        void
        operator()()
        {
            int sum = 0;
            for (size_t i = 0; i < sizeof(payload); ++i)
                sum += payload[i] == static_cast<unsigned char>(i * 37 + 1);
            *out = sum;
        }
    };
    static_assert(sizeof(Full) == SmallCallback::kInlineBytes);
    static_assert(std::is_trivially_copyable_v<Full>);

    int out = 0;
    Full fn{};
    for (size_t i = 0; i < sizeof(fn.payload); ++i)
        fn.payload[i] = static_cast<unsigned char>(i * 37 + 1);
    fn.out = &out;
    SmallCallback a{fn};
    SmallCallback b(std::move(a));
    int other_hits = 0;
    SmallCallback c{[&other_hits] { ++other_hits; }};
    c = std::move(b);
    SmallCallback &alias = c;
    c = std::move(alias);
    SmallCallback d(std::move(c));
    EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move): asserting state
    EXPECT_FALSE(b); // NOLINT(bugprone-use-after-move): asserting state
    EXPECT_FALSE(c); // NOLINT(bugprone-use-after-move): asserting state
    ASSERT_TRUE(d);
    d();
    EXPECT_EQ(out, static_cast<int>(sizeof(fn.payload)));
    EXPECT_EQ(other_hits, 0);
}

TEST(SmallCallback, EmplaceReplacesAndDestroysPrevious)
{
    Tally old_tally;
    Tally new_tally;
    int old_hits = 0;
    int new_hits = 0;
    SmallCallback cb{Tracked(&old_tally, &old_hits)};
    cb.emplace(Tracked(&new_tally, &new_hits));
    EXPECT_EQ(old_tally.destroyed, old_tally.constructed);
    // One temporary moved once into the buffer: no intermediate moves.
    EXPECT_EQ(new_tally.moves, 1);
    cb();
    EXPECT_EQ(old_hits, 0);
    EXPECT_EQ(new_hits, 1);
}

TEST(SmallCallback, ResetIsIdempotent)
{
    int hits = 0;
    SmallCallback cb{[&hits] { ++hits; }};
    cb.reset();
    EXPECT_FALSE(cb);
    cb.reset();
    EXPECT_FALSE(cb);
    EXPECT_EQ(hits, 0);
}

} // namespace
} // namespace isol::sim
