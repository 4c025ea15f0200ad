// Record<B>: a generation-time-only tuple abstraction (paper §4.1). A
// record is a pointer to a schema plus one Value<B> per field, filled in
// schema order. The schema is built and checked once, by whoever owns it:
// an operator's output schema, a hash table's key or value schema, a
// buffer's schema, or a join's left ++ right. Records only point at it.
//
// Column references are resolved to slots when the operator tree is built
// (BoundExpr in expr_eval.h, and each join's key slots), so no row looks a
// field up by name. Operators keep their records as members, sized when
// they are built, and refill them row by row: no `new Record(...)` ever
// reaches generated code — records dissolve into operations on the scalar
// values they carry — and the interpreter allocates none per row.
#ifndef LB2_ENGINE_RECORD_H_
#define LB2_ENGINE_RECORD_H_

#include <string>
#include <utility>
#include <vector>

#include "engine/value.h"
#include "schema/schema.h"
#include "util/check.h"

namespace lb2::engine {

template <typename B>
class Record {
 public:
  Record() = default;
  /// A record of `schema`'s fields; `schema` must outlive it.
  explicit Record(const schema::Schema* schema)
      : schema_(schema), values_(static_cast<size_t>(schema->size())) {}

  int size() const { return static_cast<int>(values_.size()); }
  const schema::Schema& schema() const { return *schema_; }
  const Value<B>& value(int i) const {
    return values_[static_cast<size_t>(i)];
  }
  void set(int i, Value<B> v) { values_[static_cast<size_t>(i)] = std::move(v); }

  /// Copies `src`'s values into slots [at, at + src.size()) — the `merge`
  /// of the paper's hash join, into a record of the joined schema.
  void SetFrom(int at, const Record& src) {
    for (int i = 0; i < src.size(); ++i) set(at + i, src.value(i));
  }

 private:
  const schema::Schema* schema_ = nullptr;
  std::vector<Value<B>> values_;
};

/// Slot of field `name` in `schema`. Only called while operators are built;
/// aborts if the field is absent.
inline int SlotOf(const schema::Schema& schema, const std::string& name) {
  int i = schema.IndexOf(name);
  LB2_CHECK_MSG(i >= 0, ("no field named " + name + " in " +
                         schema.ToString())
                            .c_str());
  return i;
}

/// Slots of `names` in `schema`, in order.
inline std::vector<int> SlotsOf(const schema::Schema& schema,
                                const std::vector<std::string>& names) {
  std::vector<int> slots;
  for (const auto& n : names) slots.push_back(SlotOf(schema, n));
  return slots;
}

}  // namespace lb2::engine

#endif  // LB2_ENGINE_RECORD_H_
