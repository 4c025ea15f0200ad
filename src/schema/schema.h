// Schema: an ordered list of named fields, with the lookup/concat/rename
// operations plan validation needs. Schemas exist only at plan/generation
// time — they never appear in generated code.
#ifndef LB2_SCHEMA_SCHEMA_H_
#define LB2_SCHEMA_SCHEMA_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "schema/field.h"

namespace lb2::schema {

class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<Field> fields) : fields_(fields) {}
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  int size() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const { return fields_[static_cast<size_t>(i)]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of `name`, or -1 if absent.
  int IndexOf(const std::string& name) const;

  /// True if a field named `name` exists.
  bool Has(const std::string& name) const { return IndexOf(name) >= 0; }

  /// Field by name; aborts if absent.
  const Field& Get(const std::string& name) const;

  /// Appends a field; aborts on duplicate names.
  void Add(const Field& f);

  /// Schema with this schema's fields followed by `other`'s.
  Schema Concat(const Schema& other) const;

  /// "name:kind, name:kind, ..." — for error messages and tests.
  std::string ToString() const;

  bool operator==(const Schema& other) const = default;

 private:
  std::vector<Field> fields_;
};

}  // namespace lb2::schema

#endif  // LB2_SCHEMA_SCHEMA_H_
