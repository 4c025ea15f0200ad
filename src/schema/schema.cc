#include "schema/schema.h"

#include "util/check.h"

namespace lb2::schema {

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

const Field& Schema::Get(const std::string& name) const {
  int i = IndexOf(name);
  LB2_CHECK_MSG(i >= 0, ("no field named " + name + " in " + ToString()).c_str());
  return fields_[static_cast<size_t>(i)];
}

void Schema::Add(const Field& f) {
  LB2_CHECK_MSG(!Has(f.name), ("duplicate field " + f.name).c_str());
  fields_.push_back(f);
}

Schema Schema::Concat(const Schema& other) const {
  Schema out = *this;
  for (const Field& f : other.fields_) out.Add(f);
  return out;
}

std::string Schema::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ":";
    out += FieldKindName(fields_[i].kind);
  }
  out += "]";
  return out;
}

}  // namespace lb2::schema
