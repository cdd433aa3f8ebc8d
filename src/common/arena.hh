/**
 * @file
 * Typed arena allocator (object pool) for the DES hot path.
 *
 * `Arena<T>` hands out pointers to default-constructed T objects from
 * chunked slabs and recycles released objects through a free list, so a
 * steady-state workload performs zero heap allocations: each slot is
 * constructed exactly once and *retained* between uses. That retention
 * is deliberate — a recycled `WriteAdmit` keeps its `lpns` vector's
 * capacity, a recycled callback slot keeps nothing live (callers clear
 * heavy members before release) — and it is what turns per-I/O
 * `make_shared` traffic into pointer bumps.
 *
 * Objects never move: slabs are stable, so raw pointers can be captured
 * in event callbacks. The arena destroys every constructed object at
 * destruction, so slots still "live" when a simulation is cut off (their
 * completion events destroyed unfired) are released with the arena — the
 * ownership property the previous shared_ptr boxes existed to provide.
 *
 * Determinism: acquisition order is a pure function of the acquire/
 * release history (LIFO free list, in-slab address order on growth), so
 * pooled pointers never inject host-address ordering into simulations.
 */

#ifndef ISOL_COMMON_ARENA_HH
#define ISOL_COMMON_ARENA_HH

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace isol::common
{

/**
 * Chunked object pool. T must be default-constructible; objects are
 * recycled constructed (acquire() may return a previously released
 * object — callers reset the fields they use).
 */
template <typename T, size_t kChunkObjects = 64>
class Arena
{
  public:
    Arena() = default;
    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    ~Arena()
    {
        for (auto &slab : slabs_) {
            T *objs = reinterpret_cast<T *>(slab.get());
            for (size_t i = 0; i < kChunkObjects; ++i)
                objs[i].~T();
        }
    }

    /** Get an object (recycled or fresh). O(1) amortised. */
    T *
    acquire()
    {
        if (free_.empty())
            grow();
        T *obj = free_.back();
        free_.pop_back();
        return obj;
    }

    /** Return an object to the pool. It stays constructed. */
    void
    release(T *obj)
    {
        free_.push_back(obj);
    }

  private:
    struct SlabDelete
    {
        void
        operator()(unsigned char *p) const
        {
            ::operator delete[](p, std::align_val_t{alignof(T)});
        }
    };
    using Slab = std::unique_ptr<unsigned char[], SlabDelete>;

    void
    grow()
    {
        auto *raw = static_cast<unsigned char *>(::operator new[](
            sizeof(T) * kChunkObjects, std::align_val_t{alignof(T)}));
        slabs_.emplace_back(raw);
        T *objs = reinterpret_cast<T *>(raw);
        for (size_t i = 0; i < kChunkObjects; ++i)
            ::new (static_cast<void *>(objs + i)) T();
        // Reversed so acquire() hands out ascending in-slab addresses.
        free_.reserve(free_.size() + kChunkObjects);
        for (size_t i = kChunkObjects; i > 0; --i)
            free_.push_back(objs + (i - 1));
    }

    std::vector<Slab> slabs_;
    std::vector<T *> free_;
};

} // namespace isol::common

#endif // ISOL_COMMON_ARENA_HH
