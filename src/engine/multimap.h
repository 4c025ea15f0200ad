// LB2HashMultiMap<B>: the join hash table (paper §4.2) — chained buckets
// (head/next arrays) over a ColumnarBuffer of full build-side records. The
// paper deliberately uses open addressing for aggregation and linked
// buckets for joins; both specialize into flat arrays.
#ifndef LB2_ENGINE_MULTIMAP_H_
#define LB2_ENGINE_MULTIMAP_H_

#include <algorithm>
#include <vector>

#include "engine/buffer.h"
#include "engine/hashmap.h"

namespace lb2::engine {

template <typename B>
class LB2HashMultiMap {
 public:
  using I64 = typename B::I64;

  /// `key_slots` are the build-side key fields' slots within `schema`.
  void Init(B& b, const schema::Schema& schema, const DictVec& dicts,
            const std::vector<int>& key_slots, int64_t capacity_bound,
            BufferLayout layout = BufferLayout::kRow) {
    capacity_ = std::max<int64_t>(capacity_bound, 4);
    buckets_ = NextPow2(capacity_);
    key_idx_ = key_slots;
    buf_.Init(b, schema, dicts, I64(capacity_), layout);
    match_ = Record<B>(&buf_.schema());
    next_ = b.template AllocArr<int64_t>(I64(capacity_));
    head_ = b.template AllocArr<int64_t>(I64(buckets_));
    b.For(I64(0), I64(buckets_),
          [&](I64 i) { b.ArrSet(head_, i, I64(-1)); });
    count_ = b.NewCell(I64(0));
  }

  /// Inserts a build-side record (keys are fields of the record itself).
  void Insert(B& b, const Record<B>& rec) {
    I64 i = b.Get(count_);
    buf_.Write(b, i, rec);
    I64 h = HashFields(b, rec) & I64(buckets_ - 1);
    b.ArrSet(next_, i, b.ArrGet(head_, h));
    b.ArrSet(head_, h, i);
    b.Set(count_, i + I64(1));
  }

  /// Invokes cb on every stored record whose keys equal `probe_key` (a
  /// record with the key values in key-column order).
  template <typename F>
  void Lookup(B& b, const Record<B>& probe_key, F cb) {
    I64 h = HashKey(b, probe_key) & I64(buckets_ - 1);
    auto cur = b.NewCell(b.ArrGet(head_, h));
    b.While([&] { return b.Get(cur) != I64(-1); },
            [&] {
              I64 i = b.Get(cur);
              b.If(KeyEquals(b, i, probe_key), [&] {
                buf_.Read(b, i, &match_);
                cb(match_);
              });
              b.Set(cur, b.ArrGet(next_, i));
            });
  }

  typename B::I64 Count(B& b) { return b.Get(count_); }

 private:
  I64 HashFields(B& b, const Record<B>& rec) {
    I64 h = ValHash(b, rec.value(key_idx_[0]));
    for (size_t k = 1; k < key_idx_.size(); ++k) {
      h = b.HashCombine(h, ValHash(b, rec.value(key_idx_[k])));
    }
    return h;
  }

  I64 HashKey(B& b, const Record<B>& key) {
    I64 h = ValHash(b, key.value(0));
    for (int i = 1; i < key.size(); ++i) {
      h = b.HashCombine(h, ValHash(b, key.value(i)));
    }
    return h;
  }

  typename B::Bool KeyEquals(B& b, I64 slot, const Record<B>& key) {
    typename B::Bool eq =
        ValEq(b, buf_.ReadField(b, slot, key_idx_[0]), key.value(0));
    for (size_t k = 1; k < key_idx_.size(); ++k) {
      eq = eq &&
           ValEq(b, buf_.ReadField(b, slot, key_idx_[k]), key.value(static_cast<int>(k)));
    }
    return eq;
  }

  int64_t capacity_ = 0;
  int64_t buckets_ = 0;
  std::vector<int> key_idx_;
  ColumnarBuffer<B> buf_;
  Record<B> match_;  // the stored record Lookup hands out
  typename B::template Arr<int64_t> next_;
  typename B::template Arr<int64_t> head_;
  typename B::template Cell<int64_t> count_;
};

}  // namespace lb2::engine

#endif  // LB2_ENGINE_MULTIMAP_H_
