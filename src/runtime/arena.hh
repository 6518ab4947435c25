/**
 * @file
 * Per-worker scratch storage for the serving runtime.
 *
 * Each worker thread owns one ScratchArena. Storage is addressed by
 * integer slot handles: backends resolve a name to a Slot once at
 * prepare() time (ScratchArena::resolve) and index the arena directly
 * on the hot path — no string hashing or std::string construction per
 * layer per batch. Slot storage grows monotonically: a shape change
 * reuses the backing vector's capacity, so a steady stream of batches
 * (even with varying batch sizes) performs no allocations once the
 * high-water mark is reached. Arenas are deliberately NOT thread-safe
 * — sharing one between workers defeats their purpose.
 */

#ifndef TWQ_RUNTIME_ARENA_HH
#define TWQ_RUNTIME_ARENA_HH

#include <cstdint>
#include <deque>
#include <string_view>
#include <tuple>
#include <vector>

#include "tensor/tensor.hh"

namespace twq
{

class ScratchArena
{
  public:
    /** A pre-resolved slot handle; cheap to copy and index with. */
    using Slot = std::uint32_t;

    /**
     * Resolve a name to its process-wide slot id, registering it on
     * first use. Call at prepare()/session-build time and keep the
     * handle; the same name always maps to the same slot, so layers
     * prepared once share storage across every worker arena.
     */
    static Slot resolve(std::string_view name);

    /** Number of slot names registered process-wide. */
    static std::size_t registeredSlots();

    /**
     * A reusable double-tensor slot. The first request allocates;
     * later requests with the same shape return the previous storage
     * (contents are stale — callers overwrite). A shape change reuses
     * the backing capacity where possible.
     */
    TensorD &
    tensor(Slot slot, const Shape &shape)
    {
        return shaped<double>(slot, shape);
    }

    /** Same contract for int8 tensors (quantized im2col operands). */
    TensorI8 &
    tensorI8(Slot slot, const Shape &shape)
    {
        return shaped<std::int8_t>(slot, shape);
    }

    /** Same contract for int32 tensors (widening GEMM accumulators). */
    TensorI32 &
    tensorI32(Slot slot, const Shape &shape)
    {
        return shaped<std::int32_t>(slot, shape);
    }

    /** Same contract for int16 tensors (blocked int8 tap operands). */
    TensorI16 &
    tensorI16(Slot slot, const Shape &shape)
    {
        return shaped<std::int16_t>(slot, shape);
    }

    /** Same contract for fp32 tensors (f16 engine compute planes). */
    TensorF &
    tensorF(Slot slot, const Shape &shape)
    {
        return shaped<float>(slot, shape);
    }

    /** Same contract for binary16 tensors (f16 storage activations). */
    TensorF16 &
    tensorF16(Slot slot, const Shape &shape)
    {
        return shaped<std::uint16_t>(slot, shape);
    }

    /**
     * The slot's tensor as it stands (empty on first use), for a
     * callee that sizes its own scratch: the blocked Winograd chunk
     * buffers grow to the largest chunk and never shrink, so layers of
     * different sizes share one allocation without re-zeroing it.
     */
    template <typename T>
    Tensor<T> &
    buffer(Slot slot)
    {
        auto &slots = std::get<std::deque<Tensor<T>>>(slots_);
        while (slot >= slots.size())
            slots.emplace_back();
        return slots[slot];
    }

    /** Slots holding live storage in this arena (any type). */
    std::size_t
    slotCount() const
    {
        std::size_t live = 0;
        forEachSlot([&](std::size_t n, std::size_t) { live += n > 0; });
        return live;
    }

    /** Bytes of storage held by every slot of this arena. */
    std::size_t
    bytes() const
    {
        std::size_t total = 0;
        forEachSlot(
            [&](std::size_t n, std::size_t elem) { total += n * elem; });
        return total;
    }

  private:
    template <typename T>
    Tensor<T> &
    shaped(Slot slot, const Shape &shape)
    {
        Tensor<T> &t = buffer<T>(slot);
        if (t.shape() != shape) {
            // Recycle the backing vector: capacity is kept when
            // shrinking and grows monotonically otherwise.
            std::vector<T> buf = std::move(t.storage());
            buf.resize(shapeNumel(shape));
            t = Tensor<T>(shape, std::move(buf));
        }
        return t;
    }

    /// fn(numel, element bytes) for every slot of every type.
    template <typename Fn>
    void
    forEachSlot(Fn fn) const
    {
        std::apply(
            [&](const auto &...slots) {
                (
                    [&](const auto &typed) {
                        for (const auto &t : typed)
                            fn(t.numel(), sizeof(*t.data()));
                    }(slots),
                    ...);
            },
            slots_);
    }

    // Slots live in deques so growing the arena never invalidates a
    // Tensor& handed out for another slot (a layer holds its output
    // while the backend draws its own scratch slots).
    std::tuple<std::deque<TensorD>, std::deque<TensorI8>,
               std::deque<TensorI32>, std::deque<TensorI16>,
               std::deque<TensorF>, std::deque<TensorF16>>
        slots_;
};

} // namespace twq

#endif // TWQ_RUNTIME_ARENA_HH
