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
        return shaped(dslots_, slot, shape);
    }

    /** Same contract for int8 tensors (quantized im2col operands). */
    TensorI8 &
    tensorI8(Slot slot, const Shape &shape)
    {
        return shaped(i8slots_, slot, shape);
    }

    /** Same contract for int32 tensors (widening GEMM accumulators). */
    TensorI32 &
    tensorI32(Slot slot, const Shape &shape)
    {
        return shaped(i32slots_, slot, shape);
    }

    /** Same contract for int16 tensors (blocked int8 tap operands). */
    TensorI16 &
    tensorI16(Slot slot, const Shape &shape)
    {
        return shaped(i16slots_, slot, shape);
    }

    /** Same contract for fp32 tensors (f16 engine compute planes). */
    TensorF &
    tensorF(Slot slot, const Shape &shape)
    {
        return shaped(fslots_, slot, shape);
    }

    /** Same contract for binary16 tensors (f16 storage activations). */
    TensorF16 &
    tensorF16(Slot slot, const Shape &shape)
    {
        return shaped(f16slots_, slot, shape);
    }

    /** Slots holding live storage in this arena (any type). */
    std::size_t
    slotCount() const
    {
        std::size_t live = 0;
        for (const TensorD &t : dslots_)
            live += t.numel() > 0;
        for (const TensorI8 &t : i8slots_)
            live += t.numel() > 0;
        for (const TensorI32 &t : i32slots_)
            live += t.numel() > 0;
        for (const TensorI16 &t : i16slots_)
            live += t.numel() > 0;
        for (const TensorF &t : fslots_)
            live += t.numel() > 0;
        for (const TensorF16 &t : f16slots_)
            live += t.numel() > 0;
        return live;
    }

  private:
    // Slots live in deques so growing the arena never invalidates a
    // Tensor& handed out for another slot (a layer holds its output
    // while the backend draws its own scratch slots).
    template <typename T>
    static Tensor<T> &
    shaped(std::deque<Tensor<T>> &slots, Slot slot, const Shape &shape)
    {
        while (slot >= slots.size())
            slots.emplace_back();
        Tensor<T> &t = slots[slot];
        if (t.shape() != shape) {
            // Recycle the backing vector: capacity is kept when
            // shrinking and grows monotonically otherwise.
            std::vector<T> buf = std::move(t.storage());
            buf.resize(shapeNumel(shape));
            t = Tensor<T>(shape, std::move(buf));
        }
        return t;
    }

    std::deque<TensorD> dslots_;
    std::deque<TensorI8> i8slots_;
    std::deque<TensorI32> i32slots_;
    std::deque<TensorI16> i16slots_;
    std::deque<TensorF> fslots_;
    std::deque<TensorF16> f16slots_;
};

} // namespace twq

#endif // TWQ_RUNTIME_ARENA_HH
