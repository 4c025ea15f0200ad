// LB2HashMap<B>: the aggregation hash table (paper §4.2) — open addressing
// over ColumnarBuffers, fully specialized for its key/value schemas. The
// class is written like a library hash map, but under the staged backend it
// dissolves into flat arrays and index arithmetic; the table size is a
// generation-time power of two, so masks are literal constants in the
// generated code.
//
// Sizing contract: `capacity_bound` is an upper bound on distinct keys; the
// table allocates the next power of two >= 2*bound, so probes always
// terminate (the table can never fill).
#ifndef LB2_ENGINE_HASHMAP_H_
#define LB2_ENGINE_HASHMAP_H_

#include <algorithm>

#include "engine/buffer.h"

namespace lb2::engine {

inline int64_t NextPow2(int64_t v) {
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

template <typename B>
class LB2HashMap {
 public:
  using I64 = typename B::I64;

  /// `lanes` > 1 allocates independent per-thread sub-tables (the paper's
  /// ParHashMap): lane L occupies slots [L*size, (L+1)*size). Counters live
  /// in a (file-scope) array so worker functions can update them.
  void Init(B& b, const schema::Schema& key_schema, const DictVec& key_dicts,
            const schema::Schema& val_schema, const DictVec& val_dicts,
            int64_t capacity_bound, int lanes = 1) {
    size_ = NextPow2(2 * std::max<int64_t>(capacity_bound, 4));
    lanes_ = lanes;
    I64 total(size_ * lanes);
    // Row-layout entries: the paper's Appendix B notes LB2 "often achieves
    // better performance when using structs for aggregate entries" — a
    // probe then touches one contiguous stride instead of one cache line
    // per key/value column.
    keys_.Init(b, key_schema, key_dicts, total, BufferLayout::kRow);
    vals_.Init(b, val_schema, val_dicts, total, BufferLayout::kRow);
    flags_ = b.template AllocZeroArr<char>(total);
    used_ = b.template AllocArr<int64_t>(total);
    counts_ = b.template AllocZeroArr<int64_t>(I64(lanes));
    cur_ = Record<B>(&vals_.schema());
    lane_key_ = Record<B>(&keys_.schema());
    lane_val_ = Record<B>(&vals_.schema());
  }

  /// Group-update: locates `key` in `lane` (inserting with `up(init)` on
  /// first sight, updating with `up(current)` otherwise). `up` returns the
  /// new value record.
  template <typename Up>
  void Update(B& b, I64 lane, const Record<B>& key, const Record<B>& init,
              Up up) {
    I64 base = lane * I64(size_);
    auto idx = b.NewCell(HashKey(b, key) & I64(size_ - 1));
    b.Loop([&] {
      I64 i = base + b.Get(idx);
      b.IfElse(
          FlagEmpty(b, i),
          [&] {
            // Empty slot: insert.
            MarkUsed(b, i);
            keys_.Write(b, i, key);
            vals_.Write(b, i, up(init));
            b.ArrSet(used_, base + b.ArrGet(counts_, lane), i);
            b.ArrSet(counts_, lane, b.ArrGet(counts_, lane) + I64(1));
            b.Break();
          },
          [&] {
            b.IfElse(
                KeyEquals(b, i, key),
                [&] {
                  vals_.Read(b, i, &cur_);
                  vals_.Write(b, i, up(cur_));
                  b.Break();
                },
                [&] { b.Set(idx, (b.Get(idx) + I64(1)) & I64(size_ - 1)); });
          });
    });
  }
  template <typename Up>
  void Update(B& b, const Record<B>& key, const Record<B>& init, Up up) {
    Update(b, I64(0), key, init, up);
  }

  /// Probes for `key`: calls `found` with the value record, or `miss` when
  /// absent.
  template <typename Found, typename Miss>
  void Find(B& b, const Record<B>& key, Found found, Miss miss) {
    auto idx = b.NewCell(HashKey(b, key) & I64(size_ - 1));
    b.Loop([&] {
      I64 i = b.Get(idx);
      b.IfElse(
          FlagEmpty(b, i),
          [&] {
            miss();
            b.Break();
          },
          [&] {
            b.IfElse(
                KeyEquals(b, i, key),
                [&] {
                  vals_.Read(b, i, &cur_);
                  found(cur_);
                  b.Break();
                },
                [&] { b.Set(idx, (i + I64(1)) & I64(size_ - 1)); });
          });
    });
  }

  /// Iterates one lane's groups in insertion order: fn(key record, value
  /// record).
  template <typename F>
  void ForeachLane(B& b, I64 lane, F fn) {
    I64 base = lane * I64(size_);
    b.For(I64(0), b.ArrGet(counts_, lane), [&](I64 j) {
      I64 i = b.ArrGet(used_, base + j);
      // Values before keys: the load order generated code has always had.
      vals_.Read(b, i, &lane_val_);
      keys_.Read(b, i, &lane_key_);
      fn(lane_key_, lane_val_);
    });
  }

  /// Folds every lane >= 1 into lane 0 with `merge_vals` (current, other).
  template <typename Merge>
  void MergeLanes(B& b, Merge merge_vals, const Record<B>& init) {
    for (int t = 1; t < lanes_; ++t) {
      ForeachLane(b, I64(t),
                  [&](const Record<B>& key, const Record<B>& other) {
                    Update(b, I64(0), key, init,
                           [&](const Record<B>& cur) -> decltype(auto) {
                             return merge_vals(cur, other);
                           });
                  });
    }
  }

  typename B::I64 Count(B& b) { return b.ArrGet(counts_, I64(0)); }
  int64_t table_size() const { return size_; }

 private:
  I64 HashKey(B& b, const Record<B>& key) {
    I64 h = ValHash(b, key.value(0));
    for (int i = 1; i < key.size(); ++i) {
      h = b.HashCombine(h, ValHash(b, key.value(i)));
    }
    return h;
  }

  /// Occupancy flags are a byte-wide array — 8x less memory traffic than
  /// word-wide flags on large presized tables.
  typename B::Bool FlagEmpty(B& b, I64 slot) {
    return b.ArrGet(flags_, slot) == static_cast<char>(0);
  }
  void MarkUsed(B& b, I64 slot) {
    b.ArrSet(flags_, slot, static_cast<char>(1));
  }

  typename B::Bool KeyEquals(B& b, I64 slot, const Record<B>& key) {
    typename B::Bool eq = ValEq(b, keys_.ReadField(b, slot, 0), key.value(0));
    for (int i = 1; i < key.size(); ++i) {
      eq = eq && ValEq(b, keys_.ReadField(b, slot, i), key.value(i));
    }
    return eq;
  }

  int64_t size_ = 0;
  int lanes_ = 1;
  ColumnarBuffer<B> keys_;
  ColumnarBuffer<B> vals_;
  // Records the map reads into: the value Update and Find see, and the
  // group ForeachLane hands out (distinct, since MergeLanes updates lane 0
  // while it walks another lane).
  Record<B> cur_;
  Record<B> lane_key_;
  Record<B> lane_val_;
  typename B::template Arr<char> flags_;
  typename B::template Arr<int64_t> used_;
  typename B::template Arr<int64_t> counts_;  // one per lane
};

}  // namespace lb2::engine

#endif  // LB2_ENGINE_HASHMAP_H_
