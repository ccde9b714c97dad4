/**
 * @file
 * Content-hash-keyed cache of encoded operands.
 *
 * Encoding a GEMM operand into the two-level bitmap format, or
 * synthesizing the popcount profiles of a model layer's operating
 * point, is pure: the result is a function of the operand contents
 * (or generation parameters) alone. The cache exploits that purity —
 * repeated layers and repeated requests over the same operands skip
 * re-encoding entirely, across serial and batched execution alike.
 *
 * Keys are 64-bit digests built by the call sites from a kind tag,
 * the generation parameters and the operand contents (see CacheKey).
 * Scalar fields go through byte-wise FNV-1a; a matrix or tensor
 * payload goes through one word-wide pass whose lanes are then
 * folded in as scalars (CacheKey::payload). Values are immutable and
 * shared: concurrent lookups of the same key build once and everyone
 * holds the same object.
 */
#ifndef DSTC_CORE_ENCODING_CACHE_H
#define DSTC_CORE_ENCODING_CACHE_H

#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <typeinfo>
#include <unordered_map>

#include "common/logging.h"
#include "tensor/matrix.h"
#include "timing/gpu_config.h"

namespace dstc {

/**
 * Incremental cache-key digest. Scalar fields (kind tag, strings,
 * integers, doubles, machine parameters) are folded byte by byte
 * with FNV-1a, so every structural key keeps one stable value.
 * Payloads (matrix and tensor contents) take one word-wide pass,
 * whose length and lanes are then folded in as scalars.
 */
class CacheKey
{
  public:
    /** @param kind a distinct tag per encoding family, folded into
     *         the digest so families never collide. */
    explicit CacheKey(const char *kind) { str(kind); }

    CacheKey &
    str(const char *s)
    {
        while (*s) {
            hash_ ^= static_cast<unsigned char>(*s++);
            hash_ *= 0x100000001b3ull;
        }
        return bytes("\0", 1); // terminator: no concat ambiguity
    }

    CacheKey &u64(uint64_t v) { return bytes(&v, sizeof(v)); }
    CacheKey &i64(int64_t v) { return bytes(&v, sizeof(v)); }
    CacheKey &i32(int32_t v) { return bytes(&v, sizeof(v)); }
    CacheKey &f64(double v) { return bytes(&v, sizeof(v)); }

    /**
     * Fold in a float payload of @p n elements in one word-wide pass,
     * which also counts its non-zeros into @p nnz when given.
     *
     * Four independent 64-bit hash lanes run over 32-byte steps, each
     * lane taking one 8-byte word per step as h = (h ^ w) * odd,
     * h ^= h >> 29; a partial last step is zero-padded. The element
     * count and the four lanes are then folded in as scalars. Each
     * lane step is a bijection of h for a fixed word and of w for a
     * fixed h, so two payloads of one length that differ in a single
     * element always leave different lanes. Non-zeros follow wordNnz's
     * rule, (bits & 0x7fffffff) != 0: -0.0 is a zero; NaN, Inf and
     * denormals are not.
     */
    CacheKey &
    payload(const float *data, size_t n, int64_t *nnz = nullptr)
    {
        constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
        constexpr uint64_t kMagnitude = 0x7fffffff7fffffffull;
        uint64_t h0 = 0x243f6a8885a308d3ull, h1 = 0x13198a2e03707344ull;
        uint64_t h2 = 0xa4093822299f31d0ull, h3 = 0x082efa98ec4e6c89ull;
        int64_t count = 0;
        const auto lane = [&count](uint64_t h, uint64_t w) {
            // Each 31-bit magnitude plus 0x7fffffff carries into its
            // half's top bit iff it is non-zero, never across halves.
            const uint64_t t = (w & kMagnitude) + kMagnitude;
            count += static_cast<int64_t>(((t >> 31) & 1) + (t >> 63));
            h = (h ^ w) * kMul;
            return h ^ (h >> 29);
        };
        const auto step = [&](const char *p) {
            uint64_t w[4];
            std::memcpy(w, p, sizeof(w));
            h0 = lane(h0, w[0]);
            h1 = lane(h1, w[1]);
            h2 = lane(h2, w[2]);
            h3 = lane(h3, w[3]);
        };
        const char *p = reinterpret_cast<const char *>(data);
        const size_t len = n * sizeof(float);
        size_t i = 0;
        for (; i + 32 <= len; i += 32)
            step(p + i);
        if (i < len) {
            char tail[32] = {};
            std::memcpy(tail, p + i, len - i);
            step(tail);
        }
        u64(n).u64(h0).u64(h1).u64(h2).u64(h3);
        if (nnz)
            *nnz = count;
        return *this;
    }

    /** Fold in a matrix's dimensions and full contents. */
    CacheKey &
    matrix(const Matrix<float> &m, int64_t *nnz = nullptr)
    {
        i32(m.rows());
        i32(m.cols());
        return payload(m.data().data(), m.data().size(), nnz);
    }

    /**
     * Fold in every machine parameter of a GpuConfig — the
     * config-dependent bits of cache families whose values embed
     * machine-derived results (e.g. the cluster scheduler's
     * plan-stage time estimates). Operand *encodings* are pure in
     * the operand contents and must NOT fold this in: leaving the
     * config out of their keys is what lets Sessions over different
     * devices share one cache and encode each operand once.
     */
    CacheKey &
    gpuConfig(const GpuConfig &cfg)
    {
        i32(cfg.num_sms).i32(cfg.subcores_per_sm);
        f64(cfg.clock_ghz);
        i32(cfg.ohmma_macs);
        f64(cfg.dense_gemm_efficiency);
        f64(cfg.sparse_issue_efficiency);
        f64(cfg.dram_bw_gbps).f64(cfg.dram_efficiency);
        f64(cfg.l2_bytes).f64(cfg.l2_hit_rate);
        f64(cfg.kernel_launch_us);
        i32(cfg.accum_banks).i32(cfg.accum_bytes);
        i32(cfg.operand_collector ? 1 : 0);
        i32(cfg.collector_window);
        return f64(cfg.fp32_tflops);
    }

    uint64_t value() const { return hash_; }

  private:
    CacheKey &
    bytes(const void *data, size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < len; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
        return *this;
    }

    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/**
 * Approximate resident bytes of a cached value, used by the cache's
 * optional byte-aware bound. Encodings report their real footprint
 * through encodedBytes(); anything else is charged its object size.
 */
template <typename T>
size_t
cachedValueBytes(const T &value)
{
    if constexpr (requires { value.encodedBytes(); })
        return static_cast<size_t>(value.encodedBytes());
    else
        return sizeof(T);
}

/**
 * Shared cache of encoded operands, keyed by content hash. Bounded
 * two ways: an entry-count capacity, and an optional byte bound over
 * the values' reported footprints. Eviction is LRU — every hit
 * refreshes the entry — and in-flight users keep evicted values
 * alive through the shared_ptr; only the cache's reference drops.
 */
class EncodingCache
{
  public:
    static constexpr size_t kDefaultCapacity = 1024;

    /**
     * @param capacity       maximum entry count (>= 1)
     * @param capacity_bytes maximum total value bytes; 0 = unbounded.
     *        A single value larger than the bound is still cached
     *        (evicting everything else) — the bound sheds history,
     *        it never refuses work.
     */
    explicit EncodingCache(size_t capacity = kDefaultCapacity,
                           size_t capacity_bytes = 0)
        : capacity_(capacity == 0 ? 1 : capacity),
          capacity_bytes_(capacity_bytes)
    {
    }

    struct Counters
    {
        int64_t hits = 0;
        int64_t misses = 0;
        int64_t evictions = 0;
    };

    /**
     * Return the cached value for @p key, building it with @p build
     * on first use. Thread-safe; concurrent first lookups of one key
     * build once (later arrivals block until the value is ready).
     *
     * @param hit optional out-flag: true iff the entry pre-existed.
     */
    template <typename T, typename BuildFn>
    std::shared_ptr<const T>
    getOrBuild(uint64_t key, BuildFn &&build, bool *hit = nullptr)
    {
        std::shared_ptr<Entry> entry;
        bool existed;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto &slot = entries_[key];
            existed = slot != nullptr;
            if (!existed) {
                slot = std::make_shared<Entry>();
                lru_order_.push_back(key);
                slot->lru_it = std::prev(lru_order_.end());
                while (entries_.size() > capacity_)
                    evictOldestLocked();
            } else {
                // Refresh recency: move to the back of the LRU list.
                lru_order_.splice(lru_order_.end(), lru_order_,
                                  slot->lru_it);
            }
            entry = slot;
            ++(existed ? counters_.hits : counters_.misses);
        }
        if (hit)
            *hit = existed;
        bool built = false;
        std::call_once(entry->once, [&] {
            entry->value = std::static_pointer_cast<const void>(
                std::make_shared<const T>(build()));
            entry->type = typeid(T).hash_code();
            entry->bytes = cachedValueBytes(
                *std::static_pointer_cast<const T>(entry->value));
            built = true;
        });
        DSTC_ASSERT(entry->type == typeid(T).hash_code(),
                    "EncodingCache key collision across types");
        if (built) {
            // The value's size is only known after the build (which
            // runs outside the lock); charge it now and apply the
            // byte bound. The entry may already have been evicted by
            // a concurrent insert — then there is nothing to charge.
            std::lock_guard<std::mutex> lock(mu_);
            auto it = entries_.find(key);
            if (it != entries_.end() && it->second == entry) {
                entry->charged = true;
                total_bytes_ += entry->bytes;
                if (capacity_bytes_ > 0)
                    while (total_bytes_ > capacity_bytes_ &&
                           entries_.size() > 1) {
                        if (lru_order_.front() == key) {
                            // Never evict the just-built entry: it
                            // can sit at the LRU front when every
                            // other entry was touched after its
                            // insert. Rotate it to the back (it is
                            // the most recent use anyway) and keep
                            // shedding the next-oldest.
                            lru_order_.splice(lru_order_.end(),
                                              lru_order_,
                                              lru_order_.begin());
                            continue;
                        }
                        evictOldestLocked();
                    }
            }
        }
        return std::static_pointer_cast<const T>(entry->value);
    }

    Counters
    counters() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_;
    }

    size_t
    entries() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return entries_.size();
    }

    /** Total reported bytes of the resident (charged) values. */
    size_t
    totalBytes() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return total_bytes_;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
        lru_order_.clear();
        total_bytes_ = 0;
        counters_ = Counters{};
    }

    size_t capacity() const { return capacity_; }
    size_t capacityBytes() const { return capacity_bytes_; }

  private:
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<const void> value;
        size_t type = 0;
        size_t bytes = 0;
        bool charged = false; ///< bytes counted in total_bytes_
        std::list<uint64_t>::iterator lru_it;
    };

    /** Drop the least-recently-used entry. Caller holds mu_. */
    void
    evictOldestLocked()
    {
        const uint64_t victim = lru_order_.front();
        auto it = entries_.find(victim);
        if (it != entries_.end()) {
            if (it->second->charged)
                total_bytes_ -= it->second->bytes;
            entries_.erase(it);
        }
        lru_order_.pop_front();
        ++counters_.evictions;
    }

    mutable std::mutex mu_;
    size_t capacity_;
    size_t capacity_bytes_;
    size_t total_bytes_ = 0;
    std::unordered_map<uint64_t, std::shared_ptr<Entry>> entries_;
    std::list<uint64_t> lru_order_;
    Counters counters_;
};

} // namespace dstc

#endif // DSTC_CORE_ENCODING_CACHE_H
