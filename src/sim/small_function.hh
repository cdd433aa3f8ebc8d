/**
 * @file
 * Small-buffer-optimised move-only callable for the DES hot path.
 *
 * `std::function` only stores two machine words inline (libstdc++), so
 * the pointer+id+index captures that simulator components schedule by the
 * million spill to the heap. SmallFunction keeps a 40-byte inline buffer:
 * the largest production capture is 24 bytes (a `this` pointer, a request
 * pointer and an id), and 40 bytes makes `SmallCallback` 48 bytes, so an
 * event-queue slot with its callback fills exactly one 64-byte cache line.
 * Oversized, over-aligned or throwing-move callables fall back to the
 * heap, so scheduling stays allocation free in practice.
 *
 * A trivially copyable callable (every pointer-and-integer capture) and
 * the heap path's owning pointer are relocated by a fixed-size memcpy of
 * the buffer and need no destructor call: their ops table has null `move`
 * and `destroy` entries, and moving one makes no indirect call.
 * `emplace` constructs a callable directly in an existing object, which is
 * how the event queue builds callbacks in its slots without a temporary.
 *
 * `SmallCallback` is the ubiquitous `void()` alias; the block layer uses
 * `SmallFunction<void(Request *)>` for completions.
 */

#ifndef ISOL_SIM_SMALL_FUNCTION_HH
#define ISOL_SIM_SMALL_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace isol::sim
{

template <typename Sig> class SmallFunction;

/** Move-only `R(Args...)` callable with a 40-byte inline buffer. */
template <typename R, typename... Args>
class SmallFunction<R(Args...)>
{
    /** What the converting constructor and `emplace` wrap. */
    template <typename F>
    static constexpr bool kWraps =
        !std::is_same_v<std::decay_t<F>, SmallFunction> &&
        std::is_invocable_r_v<R, std::decay_t<F> &, Args...>;

  public:
    /** Inline storage size; callables up to this size never allocate. */
    static constexpr size_t kInlineBytes = 40;

    SmallFunction() noexcept = default;
    SmallFunction(std::nullptr_t) noexcept {}

    template <typename F>
        requires kWraps<F>
    SmallFunction(F &&fn)
    {
        construct(std::forward<F>(fn));
    }

    SmallFunction(SmallFunction &&other) noexcept { moveFrom(other); }

    SmallFunction &
    operator=(SmallFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFunction(const SmallFunction &) = delete;
    SmallFunction &operator=(const SmallFunction &) = delete;

    ~SmallFunction() { reset(); }

    /** Replace the held callable with `fn`, constructed in place. */
    template <typename F>
        requires kWraps<F>
    void
    emplace(F &&fn)
    {
        reset();
        construct(std::forward<F>(fn));
    }

    /** Replace the held callable with `other`'s, moved (rvalue only). */
    void emplace(SmallFunction &&other) noexcept { *this = std::move(other); }

    /** Drop the held callable (frees captured resources). */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            if (ops_->destroy != nullptr)
                ops_->destroy(storage());
            ops_ = nullptr;
        }
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        return ops_->invoke(storage(), std::forward<Args>(args)...);
    }

  private:
    /** Null `move`/`destroy`: relocate by memcpy, destroy by forgetting. */
    struct Ops
    {
        R (*invoke)(void *self, Args &&...args);
        void (*move)(void *self, void *dst) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= kInlineBytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    // Trivially copyable implies a trivial destructor, so memcpy moves
    // such a callable and forgetting it destroys it.
    template <typename D>
    static constexpr Ops inlineOps = {
        [](void *self, Args &&...args) -> R {
            return (*static_cast<D *>(self))(
                std::forward<Args>(args)...);
        },
        std::is_trivially_copyable_v<D>
            ? nullptr
            : +[](void *self, void *dst) noexcept {
                  ::new (dst) D(std::move(*static_cast<D *>(self)));
                  static_cast<D *>(self)->~D();
              },
        std::is_trivially_copyable_v<D>
            ? nullptr
            : +[](void *self) noexcept { static_cast<D *>(self)->~D(); },
    };

    // The buffer holds only the owning pointer: memcpy moves it.
    template <typename D>
    static constexpr Ops heapOps = {
        [](void *self, Args &&...args) -> R {
            return (**static_cast<D **>(self))(
                std::forward<Args>(args)...);
        },
        nullptr,
        [](void *self) noexcept { delete *static_cast<D **>(self); },
    };

    void *storage() noexcept { return buf_; }

    /** Construct `fn` into the buffer. Precondition: empty. */
    template <typename F>
    void
    construct(F &&fn)
    {
        using D = std::decay_t<F>;
        if constexpr (fitsInline<D>()) {
            ::new (storage()) D(std::forward<F>(fn));
            ops_ = &inlineOps<D>;
        } else {
            *reinterpret_cast<D **>(storage()) = new D(std::forward<F>(fn));
            ops_ = &heapOps<D>;
        }
    }

    void
    moveFrom(SmallFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            if (ops_->move != nullptr)
                ops_->move(other.storage(), storage());
            else
                std::memcpy(buf_, other.buf_, kInlineBytes);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

/** The ubiquitous event-queue callback type. */
using SmallCallback = SmallFunction<void()>;

} // namespace isol::sim

#endif // ISOL_SIM_SMALL_FUNCTION_HH
