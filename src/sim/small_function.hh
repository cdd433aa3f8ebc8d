/**
 * @file
 * Small-buffer-optimised move-only callable for the DES hot path.
 *
 * `std::function` only stores two machine words inline (libstdc++), so
 * the pointer+id+index captures that simulator components schedule by the
 * million spill to the heap. SmallFunction keeps a 48-byte inline buffer —
 * enough for every capture in the tree (a `this` pointer, a request
 * pointer, an id, and change) — and falls back to the heap only for
 * oversized or throwing-move callables, so scheduling stays allocation
 * free in practice. `SmallCallback` is the ubiquitous `void()` alias;
 * the block layer uses `SmallFunction<void(Request *)>` for completions.
 */

#ifndef ISOL_SIM_SMALL_FUNCTION_HH
#define ISOL_SIM_SMALL_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace isol::sim
{

template <typename Sig> class SmallFunction;

/** Move-only `R(Args...)` callable with a 48-byte inline buffer. */
template <typename R, typename... Args>
class SmallFunction<R(Args...)>
{
  public:
    /** Inline storage size; callables up to this size never allocate. */
    static constexpr size_t kInlineBytes = 48;

    SmallFunction() noexcept = default;
    SmallFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    SmallFunction(F &&fn)
    {
        if constexpr (fitsInline<D>()) {
            ::new (storage()) D(std::forward<F>(fn));
            ops_ = &inlineOps<D>;
        } else {
            *reinterpret_cast<void **>(storage()) =
                new D(std::forward<F>(fn));
            ops_ = &heapOps<D>;
        }
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

    /** Drop the held callable (frees captured resources). */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
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

    template <typename D>
    static constexpr Ops inlineOps = {
        [](void *self, Args &&...args) -> R {
            return (*static_cast<D *>(self))(
                std::forward<Args>(args)...);
        },
        [](void *self, void *dst) noexcept {
            ::new (dst) D(std::move(*static_cast<D *>(self)));
            static_cast<D *>(self)->~D();
        },
        [](void *self) noexcept { static_cast<D *>(self)->~D(); },
    };

    template <typename D>
    static constexpr Ops heapOps = {
        [](void *self, Args &&...args) -> R {
            return (**static_cast<D **>(self))(
                std::forward<Args>(args)...);
        },
        [](void *self, void *dst) noexcept {
            *static_cast<D **>(dst) = *static_cast<D **>(self);
        },
        [](void *self) noexcept { delete *static_cast<D **>(self); },
    };

    void *storage() noexcept { return buf_; }

    void
    moveFrom(SmallFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->move(other.storage(), storage());
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
