/**
 * @file
 * A move-only small-buffer callable for the simulator's hot paths.
 *
 * std::function heap-allocates any capture larger than two pointers
 * and copies its target on every copy. The event queue, the CPU model,
 * the fabric and the connection pool hand a callback over for every
 * simulated event, so they use InlineFunction instead: the callable is
 * stored in a fixed inline buffer of `Capacity` bytes and moved, never
 * copied. A callable that is larger than the buffer, over-aligned, or
 * not nothrow-movable is heap-allocated instead, so any callable still
 * works; it only costs an allocation. Each alias picks its capacity as
 * a constant sized to the captures of its hot-path callers.
 */

#ifndef UQSIM_CORE_INLINE_FUNCTION_HH
#define UQSIM_CORE_INLINE_FUNCTION_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace uqsim {

template <typename Signature, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
    static_assert(Capacity >= sizeof(void *) &&
                      Capacity % alignof(void *) == 0,
                  "capacity must hold a pointer and keep it aligned");

  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, InlineFunction> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    InlineFunction(F &&f)
    {
        construct(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { take(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /**
     * Replace the target with @p f, built directly in this object's
     * buffer: an event scheduled with a lambda is constructed once, in
     * its event node, and never relocated. An InlineFunction argument
     * is moved in as a whole.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        reset();
        if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
            static_assert(std::is_same_v<F, InlineFunction>,
                          "InlineFunction is move-only: pass an rvalue");
            take(f);
        } else {
            construct(std::forward<F>(f));
        }
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke the target; throws std::bad_function_call when empty. */
    R
    operator()(Args... args) const
    {
        if (!ops_)
            throw std::bad_function_call();
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /**
     * Invoke the target once and destroy it, leaving this empty. This
     * is one indirect call where operator() and a reset are two, and
     * it lets the compiler inline the target's body and destructor
     * together. The target is detached before the call.
     * Throws std::bad_function_call when empty.
     */
    R
    consume(Args... args)
    {
        if (!ops_)
            throw std::bad_function_call();
        const Ops *ops = ops_;
        ops_ = nullptr;
        return ops->consume(buf_, std::forward<Args>(args)...);
    }

    /** @return true when a callable of type F is stored inline. */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        return sizeof(F) <= Capacity && alignof(F) <= alignof(void *) &&
               std::is_nothrow_move_constructible_v<F>;
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Invoke the target, then destroy it. */
        R (*consume)(void *, Args &&...);
        /** Move-construct the target into dst and destroy it in src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    /** Destroys an inline target when the call returns or throws. */
    template <typename F>
    struct DestroyAtEnd
    {
        F *target;
        ~DestroyAtEnd() { target->~F(); }
    };

    template <typename F>
    static constexpr Ops inlineOps = {
        [](void *p, Args &&...args) -> R {
            return (*static_cast<F *>(p))(std::forward<Args>(args)...);
        },
        [](void *p, Args &&...args) -> R {
            DestroyAtEnd<F> end{static_cast<F *>(p)};
            return (*end.target)(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            F *from = static_cast<F *>(src);
            ::new (dst) F(std::move(*from));
            from->~F();
        },
        [](void *p) noexcept { static_cast<F *>(p)->~F(); },
    };

    template <typename F>
    static constexpr Ops heapOps = {
        [](void *p, Args &&...args) -> R {
            return (**static_cast<F **>(p))(std::forward<Args>(args)...);
        },
        [](void *p, Args &&...args) -> R {
            const std::unique_ptr<F> target(*static_cast<F **>(p));
            return (*target)(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            *static_cast<F **>(dst) = *static_cast<F **>(src);
        },
        [](void *p) noexcept { delete *static_cast<F **>(p); },
    };

    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "callable does not match the signature");
        // An empty std::function or a null function pointer stays empty.
        if constexpr (std::is_constructible_v<bool, const Fn &>) {
            if (!static_cast<bool>(f))
                return;
        }
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    void
    take(InlineFunction &other) noexcept
    {
        if (other.ops_) {
            other.ops_->relocate(buf_, other.buf_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_) {
            // Detach first: the target's destructor may reenter.
            const Ops *ops = ops_;
            ops_ = nullptr;
            ops->destroy(buf_);
        }
    }

    const Ops *ops_ = nullptr;
    alignas(void *) mutable unsigned char buf_[Capacity];
};

} // namespace uqsim

#endif // UQSIM_CORE_INLINE_FUNCTION_HH
