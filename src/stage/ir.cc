#include "stage/ir.h"

#include "stage/prelude.h"

namespace lb2::stage {

std::string CFunction::Signature() const {
  std::string sig;
  if (is_static) sig += "static ";
  sig += return_type + " " + name + "(";
  if (params.empty()) {
    sig += "void";
  } else {
    for (size_t i = 0; i < params.size(); ++i) {
      if (i > 0) sig += ", ";
      sig += params[i].first + " " + params[i].second;
    }
  }
  sig += ")";
  return sig;
}

CModule::~CModule() {
  for (CFunction* f : functions_) delete f;
}

std::string CModule::Emit() const {
  std::string out;
  out.reserve(1 << 16);
  out += kCPrelude;
  out += "\n";
  for (const auto& s : structs_) {
    out += s;
    out += "\n";
  }
  // The execution context: the entry's only channel to per-run state. The
  // four-pointer header is a fixed ABI (stage::ExecCtxHeader); scratch
  // fields discovered during staging follow. Always emitted — with the
  // exported lb2_ctx_bytes — so hosts can size a context without knowing
  // the fields. `params` carries the literals bound at Run() for
  // parameterized plans (unused, and left null, for modules staged without
  // parameter references); `morsels` points at the shared morsel dispenser
  // the spine claims from (never null, morsel_rows > 0).
  out += "typedef struct {\n";
  out += "  void** env;\n";
  out += "  lb2_out* out;\n";
  out += "  const lb2_param* params;\n";
  out += "  lb2_morsel_source* morsels;\n";
  for (const auto& f : ctx_fields_) {
    out += "  " + f.first + " " + f.second + ";\n";
  }
  // Profiling counters ride on the context too — per-run, zeroed with it —
  // and only exist when the module was staged with profiling on, so the
  // profile-off emission below is byte-for-byte what it always was.
  if (prof_slots_ > 0) {
    out += "  int64_t lb2_prof[" + std::to_string(2 * prof_slots_) + "];\n";
  }
  out += "} lb2_exec_ctx;\n";
  out += "const int64_t lb2_ctx_bytes = (int64_t)sizeof(lb2_exec_ctx);\n";
  out += "const int64_t lb2_param_count = " + std::to_string(param_slots_) +
         ";\n";
  if (prof_slots_ > 0) {
    out += "const int64_t lb2_prof_count = " + std::to_string(prof_slots_) +
           ";\n";
    out += "const int64_t lb2_prof_offset = "
           "(int64_t)__builtin_offsetof(lb2_exec_ctx, lb2_prof);\n";
  }
  out += "\n";
  for (const auto& g : globals_) {
    out += g;
    out += "\n";
  }
  out += "\n";
  // Forward declarations so generation order never matters.
  for (const CFunction* f : functions_) {
    out += f->Signature();
    out += ";\n";
  }
  out += "\n";
  for (const CFunction* f : functions_) {
    out += f->Signature();
    out += " {\n";
    for (const auto& line : f->body) {
      out += line;
      out += "\n";
    }
    out += "}\n\n";
  }
  return out;
}

std::string FindMutableFileScopeState(const std::string& source) {
  size_t pos = 0;
  while (pos < source.size()) {
    size_t eol = source.find('\n', pos);
    if (eol == std::string::npos) eol = source.size();
    std::string line = source.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    // Only column-0 lines can be file-scope definitions; bodies, struct
    // members, and closers ("} lb2_out;") are indented or start with '}'.
    char c = line[0];
    if (c == ' ' || c == '\t' || c == '}' || c == '#' || c == '/') continue;
    if (line.rfind("typedef", 0) == 0) continue;
    if (line.rfind("extern", 0) == 0) continue;
    // Function definitions/declarations carry a parameter list; anything
    // else ending in ';' is a variable definition — writable unless const.
    if (line.back() != ';') continue;
    if (line.find('(') != std::string::npos) continue;
    if (line.find("const ") != std::string::npos) continue;
    return line;
  }
  return "";
}

}  // namespace lb2::stage
