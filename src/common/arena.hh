/**
 * @file
 * Allocation-avoidance primitives for the engine hot paths.
 *
 * Profiling (bench/micro_engines) showed the per-record cost of the
 * STeMS engines is dominated not by hashing or arithmetic but by heap
 * churn: every AGT generation carried a std::vector for its spatial
 * sequence, and every stream start built fresh scratch vectors. Two
 * small tools remove that:
 *
 *  - InlineVec<T, N>: a fixed-capacity vector whose storage is inline
 *    in the object. Bounded predictor state (an AGT generation records
 *    at most one element per region block offset, so its sequence is
 *    <= kBlocksPerRegion) fits a hard compile-time cap, and the
 *    container then allocates nothing, copies with memcpy-class cost,
 *    and keeps the elements on the same cache lines as the rest of
 *    the entry.
 *
 *  - Span<T>: a non-owning view of a contiguous run of T. A producer
 *    that keeps its output in member scratch (the PST's cached
 *    predictions, a reconstruction window) hands out a span instead
 *    of copying into a fresh vector.
 *
 * Lifetime rules: InlineVec owns its elements like any value type.
 * A Span owns nothing: its producer documents how long the viewed
 * storage stays valid (typically until the producer's next call).
 */

#ifndef STEMS_COMMON_ARENA_HH
#define STEMS_COMMON_ARENA_HH

#include <cassert>
#include <cstddef>
#include <utility>

namespace stems {

/**
 * Fixed-capacity vector with inline storage and no heap use.
 *
 * Only the first size() elements are meaningful; the rest are
 * default-constructed padding so the container stays trivially
 * copyable for trivially-copyable T (which keeps LruTable value
 * moves cheap).
 *
 * @tparam T  element type (default-constructible, copyable).
 * @tparam N  compile-time capacity.
 */
template <typename T, std::size_t N>
class InlineVec
{
  public:
    using value_type = T;

    InlineVec() = default;

    /** Append; capacity overflow is a programming error (assert). */
    void
    push_back(const T &v)
    {
        assert(size_ < N);
        elems_[size_++] = v;
    }

    /** Construct-in-place append. */
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        assert(size_ < N);
        elems_[size_] = T(std::forward<Args>(args)...);
        return elems_[size_++];
    }

    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    static constexpr std::size_t capacity() { return N; }
    bool full() const { return size_ == N; }

    T &operator[](std::size_t i)
    {
        assert(i < size_);
        return elems_[i];
    }
    const T &operator[](std::size_t i) const
    {
        assert(i < size_);
        return elems_[i];
    }

    T &back()
    {
        assert(size_ > 0);
        return elems_[size_ - 1];
    }
    const T &back() const
    {
        assert(size_ > 0);
        return elems_[size_ - 1];
    }

    T *begin() { return elems_; }
    T *end() { return elems_ + size_; }
    const T *begin() const { return elems_; }
    const T *end() const { return elems_ + size_; }
    T *data() { return elems_; }
    const T *data() const { return elems_; }

  private:
    T elems_[N] = {};
    std::size_t size_ = 0;
};

/** Non-owning view of `count` contiguous elements at `first`. */
template <typename T>
struct Span
{
    const T *first = nullptr;
    std::size_t count = 0;

    const T *begin() const { return first; }
    const T *end() const { return first + count; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const T &operator[](std::size_t i) const
    {
        assert(i < count);
        return first[i];
    }
    const T &front() const
    {
        assert(count > 0);
        return first[0];
    }
};

} // namespace stems

#endif // STEMS_COMMON_ARENA_HH
