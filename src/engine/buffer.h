// ColumnarBuffer<B>: materialization buffers for pipeline breakers (paper
// §4.1). Column-oriented over backend arrays; like Record, the buffer
// object itself is generation-time-only — generated code sees raw
// mallocs and indexed loads/stores.
#ifndef LB2_ENGINE_BUFFER_H_
#define LB2_ENGINE_BUFFER_H_

#include <vector>

#include "engine/record.h"

namespace lb2::engine {

/// Per-field dictionary info (null = raw representation).
using DictVec = std::vector<const rt::Dictionary*>;

/// Materialization layout (paper §4.1): column-oriented (one array per
/// field — best for narrow in-place updates, e.g. aggregation tables) or
/// row-oriented (one slot-array stride per record — best for wide build
/// sides of joins, where a probe touches every field of a match).
enum class BufferLayout { kColumnar, kRow };

/// How one field is physically stored.
enum class PhysKind { kI64, kF64, kStr, kDictCode };

inline PhysKind PhysOf(const schema::Field& f, const rt::Dictionary* dict) {
  using K = schema::FieldKind;
  switch (f.kind) {
    case K::kInt64:
    case K::kDate:
      return PhysKind::kI64;
    case K::kDouble:
      return PhysKind::kF64;
    case K::kString:
      return dict != nullptr ? PhysKind::kDictCode : PhysKind::kStr;
  }
  return PhysKind::kI64;
}

template <typename B>
class ColumnarBuffer {
 public:
  struct Col {
    typename B::template Arr<int64_t> i64;
    typename B::template Arr<double> f64;
    typename B::template Arr<const char*> sp;
    typename B::template Arr<int32_t> sl;
  };

  ColumnarBuffer() = default;

  /// Allocates storage. `dicts` must be parallel to `schema` (or empty for
  /// all-raw).
  void Init(B& b, const schema::Schema& schema, const DictVec& dicts,
            typename B::I64 capacity,
            BufferLayout layout = BufferLayout::kColumnar) {
    schema_ = schema;
    dicts_ = dicts;
    layout_ = layout;
    if (dicts_.empty()) dicts_.assign(static_cast<size_t>(schema.size()),
                                      nullptr);
    cols_.clear();
    if (layout_ == BufferLayout::kRow) {
      // Slot layout: each record is `stride_` contiguous int64 slots;
      // doubles are bit-cast, strings take (ptr, len) slot pairs.
      stride_ = 0;
      slot_.clear();
      for (int i = 0; i < schema.size(); ++i) {
        slot_.push_back(stride_);
        stride_ += Phys(i) == PhysKind::kStr ? 2 : 1;
      }
      rows_ = b.template AllocArr<int64_t>(capacity *
                                           typename B::I64(stride_));
      return;
    }
    for (int i = 0; i < schema.size(); ++i) {
      Col c;
      switch (Phys(i)) {
        case PhysKind::kI64:
        case PhysKind::kDictCode:
          c.i64 = b.template AllocArr<int64_t>(capacity);
          break;
        case PhysKind::kF64:
          c.f64 = b.template AllocArr<double>(capacity);
          break;
        case PhysKind::kStr:
          c.sp = b.template AllocArr<const char*>(capacity);
          c.sl = b.template AllocArr<int32_t>(capacity);
          break;
      }
      cols_.push_back(c);
    }
  }

  void Write(B& b, typename B::I64 idx, const Record<B>& rec) {
    LB2_CHECK(rec.size() == schema_.size());
    if (layout_ == BufferLayout::kRow) {
      typename B::I64 base = idx * typename B::I64(stride_);
      for (int i = 0; i < schema_.size(); ++i) {
        const Value<B>& v = rec.value(i);
        typename B::I64 at = base + typename B::I64(slot_[static_cast<size_t>(i)]);
        switch (Phys(i)) {
          case PhysKind::kI64:
            b.ArrSet(rows_, at, AsI64(b, v));
            break;
          case PhysKind::kF64:
            b.ArrSet(rows_, at, b.F64Bits(AsF64(b, v)));
            break;
          case PhysKind::kDictCode:
            LB2_CHECK(v.is_str() && v.str().is_dict);
            b.ArrSet(rows_, at, v.str().code);
            break;
          case PhysKind::kStr: {
            typename B::Str s = AsRawStr(b, v);
            b.ArrSet(rows_, at, b.PtrBits(s.p));
            b.ArrSet(rows_, at + typename B::I64(1),
                     b.I32ToI64(s.n));
            break;
          }
        }
      }
      return;
    }
    for (int i = 0; i < schema_.size(); ++i) {
      const Value<B>& v = rec.value(i);
      const Col& c = cols_[static_cast<size_t>(i)];
      switch (Phys(i)) {
        case PhysKind::kI64:
          b.ArrSet(c.i64, idx, AsI64(b, v));
          break;
        case PhysKind::kF64:
          b.ArrSet(c.f64, idx, AsF64(b, v));
          break;
        case PhysKind::kDictCode: {
          LB2_CHECK(v.is_str() && v.str().is_dict);
          b.ArrSet(c.i64, idx, v.str().code);
          break;
        }
        case PhysKind::kStr: {
          typename B::Str s = AsRawStr(b, v);
          b.ArrSet(c.sp, idx, s.p);
          b.ArrSet(c.sl, idx, s.n);
          break;
        }
      }
    }
  }

  /// Reads record `idx` into `out`, a record of this buffer's schema.
  void Read(B& b, typename B::I64 idx, Record<B>* out) const {
    for (int i = 0; i < schema_.size(); ++i) {
      out->set(i, ReadField(b, idx, i));
    }
  }

  Value<B> ReadField(B& b, typename B::I64 idx, int i) const {
    if (layout_ == BufferLayout::kRow) {
      typename B::I64 at = idx * typename B::I64(stride_) +
                           typename B::I64(slot_[static_cast<size_t>(i)]);
      switch (Phys(i)) {
        case PhysKind::kI64:
          return Value<B>::I64(b.ArrGet(rows_, at));
        case PhysKind::kF64:
          return Value<B>::F64(b.BitsF64(b.ArrGet(rows_, at)));
        case PhysKind::kDictCode:
          return Value<B>::DictStr(b.ArrGet(rows_, at),
                                   dicts_[static_cast<size_t>(i)]);
        case PhysKind::kStr: {
          typename B::Str s{
              b.BitsPtr(b.ArrGet(rows_, at)),
              b.CastI32(b.ArrGet(rows_, at + typename B::I64(1)))};
          return Value<B>::Str(s);
        }
      }
    }
    const Col& c = cols_[static_cast<size_t>(i)];
    switch (Phys(i)) {
      case PhysKind::kI64:
        return Value<B>::I64(b.ArrGet(c.i64, idx));
      case PhysKind::kF64:
        return Value<B>::F64(b.ArrGet(c.f64, idx));
      case PhysKind::kDictCode:
        return Value<B>::DictStr(b.ArrGet(c.i64, idx),
                                 dicts_[static_cast<size_t>(i)]);
      case PhysKind::kStr: {
        typename B::Str s{b.ArrGet(c.sp, idx), b.ArrGet(c.sl, idx)};
        return Value<B>::Str(s);
      }
    }
    LB2_CHECK(false);
    return Value<B>::I64(typename B::I64(0));
  }

  const schema::Schema& schema() const { return schema_; }
  const DictVec& dicts() const { return dicts_; }
  BufferLayout layout() const { return layout_; }
  PhysKind Phys(int i) const {
    return PhysOf(schema_.field(i), dicts_[static_cast<size_t>(i)]);
  }
  /// Columnar-layout array handles (sort comparators); columnar only.
  const Col& col(int i) const {
    LB2_CHECK(layout_ == BufferLayout::kColumnar);
    return cols_[static_cast<size_t>(i)];
  }

 private:
  schema::Schema schema_;
  DictVec dicts_;
  BufferLayout layout_ = BufferLayout::kColumnar;
  std::vector<Col> cols_;
  // Row layout state.
  int stride_ = 0;
  std::vector<int> slot_;
  typename B::template Arr<int64_t> rows_;
};

}  // namespace lb2::engine

#endif  // LB2_ENGINE_BUFFER_H_
