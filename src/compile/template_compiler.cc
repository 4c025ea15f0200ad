#include "compile/template_compiler.h"

#include <map>

#include "plan/validate.h"
#include "stage/prelude.h"
#include "util/check.h"
#include "util/str.h"
#include "util/time.h"

namespace lb2::compile {

using plan::AggKind;
using plan::ExprOp;
using plan::ExprRef;
using plan::OpType;
using plan::PlanRef;
using schema::FieldKind;
using schema::Schema;

namespace {

// The generic-runtime prelude appended to the shared C prelude: untyped
// slot rows and a chained hash table with per-row heap allocation — exactly
// the "generic library" data structures the paper's template-expansion
// strawman relies on.
constexpr const char* kTemplatePrelude = R"TPL(
typedef union { int64_t i; double d; const char* p; } lb2t_val;

typedef struct lb2t_node {
  struct lb2t_node* next;
  int64_t hash;
  lb2t_val* row;
} lb2t_node;

typedef struct {
  lb2t_node** b;
  int64_t n;
} lb2t_ht;

static lb2t_ht* lb2t_ht_new(int64_t n) {
  lb2t_ht* h = (lb2t_ht*)malloc(sizeof(lb2t_ht));
  h->n = n;
  h->b = (lb2t_node**)calloc((size_t)n, sizeof(lb2t_node*));
  return h;
}

static lb2t_val* lb2t_row_copy(const lb2t_val* r, int w) {
  lb2t_val* c = (lb2t_val*)malloc(sizeof(lb2t_val) * (size_t)w);
  memcpy(c, r, sizeof(lb2t_val) * (size_t)w);
  return c;
}

static void lb2t_ht_insert(lb2t_ht* h, int64_t hash, lb2t_val* row) {
  lb2t_node* nd = (lb2t_node*)malloc(sizeof(lb2t_node));
  int64_t slot = (int64_t)((uint64_t)hash % (uint64_t)h->n);
  nd->next = h->b[slot];
  nd->hash = hash;
  nd->row = row;
  h->b[slot] = nd;
}

typedef struct {
  lb2t_val** rows;
  int64_t n, cap;
} lb2t_vec;

static void lb2t_vec_push(lb2t_vec* v, lb2t_val* row) {
  if (v->n == v->cap) {
    v->cap = v->cap ? v->cap * 2 : 1024;
    v->rows = (lb2t_val**)realloc(v->rows, sizeof(lb2t_val*) * (size_t)v->cap);
  }
  v->rows[v->n++] = row;
}

static void lb2t_ht_free(lb2t_ht* h) {
  for (int64_t i = 0; i < h->n; i++) {
    lb2t_node* nd = h->b[i];
    while (nd) {
      lb2t_node* nx = nd->next;
      free(nd->row);
      free(nd);
      nd = nx;
    }
  }
  free(h->b);
  free(h);
}

static void lb2t_vec_free(lb2t_vec* v) {
  for (int64_t i = 0; i < v->n; i++) free(v->rows[i]);
  free(v->rows);
  v->rows = 0; v->n = 0; v->cap = 0;
}
)TPL";

/// Slot layout of a schema: strings take two slots (ptr, len).
struct SlotMap {
  std::vector<int> slot;  // field index -> first slot
  int width = 0;

  explicit SlotMap(const Schema& s) {
    for (int i = 0; i < s.size(); ++i) {
      slot.push_back(width);
      width += s.field(i).kind == FieldKind::kString ? 2 : 1;
    }
  }
};

/// A generated value: numeric C expression, or a string (ptr, len) pair.
struct TVal {
  FieldKind kind;
  std::string num;  // valid unless kind == kString
  std::string ptr, len;
};

class TemplateGen {
 public:
  TemplateGen(const plan::Query& q, const rt::Database& db)
      : query_(q), db_(&db) {}

  std::string Generate(rt::EnvLayout* env) {
    env_ = env;
    std::string body;
    for (size_t i = 0; i < query_.scalar_subqueries.size(); ++i) {
      const PlanRef& sub = query_.scalar_subqueries[i];
      decls_ += "  double sc" + std::to_string(i) + " = 0;\n";
      Schema s = plan::OutputSchema(sub, *db_);
      SlotMap m(s);
      body += GenOp(sub, [&](const std::string& row) {
        return "  sc" + std::to_string(i) + " = (double)" +
               (s.field(0).kind == FieldKind::kDouble
                    ? row + "[0].d"
                    : row + "[0].i") +
               ";\n";
      });
    }
    Schema out_schema = plan::OutputSchema(query_.root, *db_);
    body += "  double lb2_tstart = lb2_now_ms();\n";
    body += GenOp(query_.root, [&](const std::string& row) {
      SlotMap m(out_schema);
      std::string c;
      for (int i = 0; i < out_schema.size(); ++i) {
        if (i > 0) c += "  lb2_out_char(out, '|');\n";
        std::string base = row + "[" + std::to_string(m.slot[static_cast<size_t>(i)]) + "]";
        switch (out_schema.field(i).kind) {
          case FieldKind::kInt64:
            c += "  lb2_out_i64(out, " + base + ".i);\n";
            break;
          case FieldKind::kDouble:
            c += "  lb2_out_f64(out, " + base + ".d);\n";
            break;
          case FieldKind::kDate:
            c += "  lb2_out_date(out, " + base + ".i);\n";
            break;
          case FieldKind::kString:
            c += "  lb2_out_str(out, " + base + ".p, (int32_t)" + row + "[" +
                 std::to_string(m.slot[static_cast<size_t>(i)] + 1) +
                 "].i);\n";
            break;
        }
      }
      c += "  lb2_out_char(out, '\\n');\n  out->rows++;\n";
      return c;
    });
    body += "  out->exec_ms = lb2_now_ms() - lb2_tstart;\n";

    std::string src;
    src += stage::kCPrelude;
    src += kTemplatePrelude;
    src += functions_;
    // Same reentrant entry ABI as the staged compiler (jit.h): all state is
    // either per-call locals or reached through the execution context. The
    // template path needs no scratch fields beyond the fixed header. The
    // morsels pointer is part of that header (the host Run() always fills
    // it); template code never reads it and runs plain sequential loops.
    src += "typedef struct {\n  void** env;\n  lb2_out* out;\n"
           "  const lb2_param* params;\n  lb2_morsel_source* morsels;\n"
           "} lb2_exec_ctx;\n";
    src += "const int64_t lb2_ctx_bytes = (int64_t)sizeof(lb2_exec_ctx);\n";
    // The template path never hoists literals, but it shares the host-side
    // Run() ABI with the staged compiler, so it declares zero slots.
    src += "const int64_t lb2_param_count = 0;\n";
    src += "int64_t lb2_query(lb2_exec_ctx* lb2_ctx) {\n";
    src += "  void** env = lb2_ctx->env;\n";
    src += "  lb2_out* out = lb2_ctx->out;\n";
    src += "  (void)env;\n";
    src += binds_;
    src += decls_;
    src += body;
    // Free generic structures so repeated Run() calls do not grow the heap
    // (and do not pollute measurements of other engines in-process).
    src += frees_;
    src += "  return out->rows;\n}\n";
    return src;
  }

 private:
  using Consumer = std::function<std::string(const std::string& row_var)>;

  std::string Fresh(const char* p) { return p + std::to_string(counter_++); }

  /// Binds a base-table column pointer once; returns the C variable name.
  std::string BindColumn(const std::string& table, const std::string& col) {
    std::string key = table + "." + col;
    auto it = col_vars_.find(key);
    if (it != col_vars_.end()) return it->second;
    const rt::Column& c = db_->table(table).column(col);
    std::string ctype;
    const void* ptr = nullptr;
    switch (c.kind()) {
      case FieldKind::kInt64: ctype = "const int64_t*"; ptr = c.i64_data(); break;
      case FieldKind::kDouble: ctype = "const double*"; ptr = c.f64_data(); break;
      case FieldKind::kDate: ctype = "const int32_t*"; ptr = c.date_data(); break;
      case FieldKind::kString: {
        // Two bound vars; the second registered under key+":l".
        std::string pv = Fresh("cp");
        std::string lv = Fresh("cl");
        int ps = env_->SlotFor("t:" + key + ":p", [&c](const rt::Database&) {
          return static_cast<const void*>(c.str_ptr_data());
        });
        int ls = env_->SlotFor("t:" + key + ":l", [&c](const rt::Database&) {
          return static_cast<const void*>(c.str_len_data());
        });
        binds_ += "  const char** " + pv + " = (const char**)env[" +
                  std::to_string(ps) + "];\n";
        binds_ += "  const int32_t* " + lv + " = (const int32_t*)env[" +
                  std::to_string(ls) + "];\n";
        col_vars_[key] = pv;
        col_vars_[key + ":l"] = lv;
        return pv;
      }
    }
    std::string v = Fresh("c");
    int slot = env_->SlotFor("t:" + key, [ptr](const rt::Database&) {
      return ptr;
    });
    binds_ += "  " + ctype + " " + v + " = (" + ctype + ")env[" +
              std::to_string(slot) + "];\n";
    col_vars_[key] = v;
    return v;
  }

  // -- Expression templates --------------------------------------------------

  TVal Slot(const std::string& row, const Schema& s, const SlotMap& m,
            const std::string& name) {
    int i = s.IndexOf(name);
    LB2_CHECK_MSG(i >= 0, ("template: unbound column " + name).c_str());
    std::string base =
        row + "[" + std::to_string(m.slot[static_cast<size_t>(i)]) + "]";
    FieldKind k = s.field(i).kind;
    if (k == FieldKind::kString) {
      return {k, "", base + ".p",
              "(int32_t)" + row + "[" +
                  std::to_string(m.slot[static_cast<size_t>(i)] + 1) + "].i"};
    }
    if (k == FieldKind::kDouble) return {k, base + ".d", "", ""};
    return {k, base + ".i", "", ""};
  }

  std::string Num(const TVal& v) {
    LB2_CHECK(v.kind != FieldKind::kString);
    return v.num;
  }
  std::string Dbl(const TVal& v) { return "(double)(" + Num(v) + ")"; }

  TVal GenExpr(const ExprRef& e, const std::string& row, const Schema& s,
               const SlotMap& m) {
    switch (e->op) {
      case ExprOp::kColRef:
        return Slot(row, s, m, e->str);
      case ExprOp::kIntConst:
      case ExprOp::kDateConst:
      case ExprOp::kBoolConst:
        return {e->op == ExprOp::kDateConst ? FieldKind::kDate
                                            : FieldKind::kInt64,
                std::to_string(e->i64) + "LL", "", ""};
      case ExprOp::kDoubleConst:
        return {FieldKind::kDouble, StrPrintf("%.17g", e->f64), "", ""};
      case ExprOp::kStrConst:
        return {FieldKind::kString, "", stage::CStringLit(e->str),
                std::to_string(e->str.size())};
      case ExprOp::kAdd:
      case ExprOp::kSub:
      case ExprOp::kMul:
      case ExprOp::kDiv: {
        TVal a = GenExpr(e->children[0], row, s, m);
        TVal b = GenExpr(e->children[1], row, s, m);
        const char* op = e->op == ExprOp::kAdd   ? "+"
                         : e->op == ExprOp::kSub ? "-"
                         : e->op == ExprOp::kMul ? "*"
                                                 : "/";
        bool dbl = e->op == ExprOp::kDiv || a.kind == FieldKind::kDouble ||
                   b.kind == FieldKind::kDouble;
        if (dbl) {
          return {FieldKind::kDouble,
                  "(" + Dbl(a) + " " + op + " " + Dbl(b) + ")", "", ""};
        }
        return {FieldKind::kInt64, "(" + Num(a) + " " + op + " " + Num(b) + ")",
                "", ""};
      }
      case ExprOp::kEq:
      case ExprOp::kNe:
      case ExprOp::kLt:
      case ExprOp::kLe:
      case ExprOp::kGt:
      case ExprOp::kGe: {
        TVal a = GenExpr(e->children[0], row, s, m);
        TVal b = GenExpr(e->children[1], row, s, m);
        const char* op = e->op == ExprOp::kEq   ? "=="
                         : e->op == ExprOp::kNe ? "!="
                         : e->op == ExprOp::kLt ? "<"
                         : e->op == ExprOp::kLe ? "<="
                         : e->op == ExprOp::kGt ? ">"
                                                : ">=";
        if (a.kind == FieldKind::kString) {
          std::string cmp = "lb2_str_cmp(" + a.ptr + ", " + a.len + ", " +
                            b.ptr + ", " + b.len + ")";
          return {FieldKind::kInt64, "(" + cmp + " " + op + " 0)", "", ""};
        }
        return {FieldKind::kInt64,
                "(" + Num(a) + " " + op + " " + Num(b) + ")", "", ""};
      }
      case ExprOp::kAnd:
      case ExprOp::kOr: {
        TVal a = GenExpr(e->children[0], row, s, m);
        TVal b = GenExpr(e->children[1], row, s, m);
        const char* op = e->op == ExprOp::kAnd ? "&&" : "||";
        return {FieldKind::kInt64,
                "(" + Num(a) + " " + op + " " + Num(b) + ")", "", ""};
      }
      case ExprOp::kNot: {
        TVal a = GenExpr(e->children[0], row, s, m);
        return {FieldKind::kInt64, "(!" + Num(a) + ")", "", ""};
      }
      case ExprOp::kLike:
      case ExprOp::kStartsWith:
      case ExprOp::kEndsWith:
      case ExprOp::kContains: {
        TVal a = GenExpr(e->children[0], row, s, m);
        const char* fn = e->op == ExprOp::kLike         ? "lb2_like"
                         : e->op == ExprOp::kStartsWith ? "lb2_starts_with"
                         : e->op == ExprOp::kEndsWith   ? "lb2_ends_with"
                                                        : "lb2_contains";
        std::string pat = e->op == ExprOp::kLike ? e->str : e->str;
        return {FieldKind::kInt64,
                std::string(fn) + "(" + a.ptr + ", " + a.len + ", " +
                    stage::CStringLit(pat) + ", " +
                    std::to_string(pat.size()) + ")",
                "", ""};
      }
      case ExprOp::kNotLike:
        LB2_CHECK(false);
        return {};
      case ExprOp::kInStr: {
        TVal a = GenExpr(e->children[0], row, s, m);
        std::string out = "(";
        for (size_t i = 0; i < e->str_list.size(); ++i) {
          if (i) out += " || ";
          out += "lb2_str_eq(" + a.ptr + ", " + a.len + ", " +
                 stage::CStringLit(e->str_list[i]) + ", " +
                 std::to_string(e->str_list[i].size()) + ")";
        }
        return {FieldKind::kInt64, out + ")", "", ""};
      }
      case ExprOp::kInInt: {
        TVal a = GenExpr(e->children[0], row, s, m);
        std::string v = Num(a);
        std::string out = "(";
        for (size_t i = 0; i < e->int_list.size(); ++i) {
          if (i) out += " || ";
          out += "(" + v + " == " + std::to_string(e->int_list[i]) + "LL)";
        }
        return {FieldKind::kInt64, out + ")", "", ""};
      }
      case ExprOp::kCase: {
        TVal c = GenExpr(e->children[0], row, s, m);
        TVal t = GenExpr(e->children[1], row, s, m);
        TVal f = GenExpr(e->children[2], row, s, m);
        bool dbl =
            t.kind == FieldKind::kDouble || f.kind == FieldKind::kDouble;
        if (dbl) {
          return {FieldKind::kDouble,
                  "(" + Num(c) + " ? " + Dbl(t) + " : " + Dbl(f) + ")", "",
                  ""};
        }
        return {FieldKind::kInt64,
                "(" + Num(c) + " ? " + Num(t) + " : " + Num(f) + ")", "", ""};
      }
      case ExprOp::kYear: {
        TVal a = GenExpr(e->children[0], row, s, m);
        return {FieldKind::kInt64, "(" + Num(a) + " / 10000)", "", ""};
      }
      case ExprOp::kSubstring: {
        TVal a = GenExpr(e->children[0], row, s, m);
        // Static offsets clamped against the source length.
        std::string pos = std::to_string(e->i64);
        std::string len = std::to_string(e->i64b);
        return {FieldKind::kString, "",
                "(" + a.ptr + " + (" + a.len + " < " + pos + " ? " + a.len +
                    " : " + pos + "))",
                "((" + a.len + " - " + pos + ") < " + len + " ? (" + a.len +
                    " < " + pos + " ? 0 : " + a.len + " - " + pos + ") : " +
                    len + ")"};
      }
      case ExprOp::kScalarRef:
        return {FieldKind::kDouble, "sc" + std::to_string(e->i64), "", ""};
    }
    LB2_CHECK(false);
    return {};
  }

  /// Statements storing `v` into row slots of field `i`.
  std::string StoreSlot(const std::string& row, const SlotMap& m, int i,
                        FieldKind k, const TVal& v) {
    std::string base =
        row + "[" + std::to_string(m.slot[static_cast<size_t>(i)]) + "]";
    if (k == FieldKind::kString) {
      return "  " + base + ".p = " + v.ptr + ";\n  " + row + "[" +
             std::to_string(m.slot[static_cast<size_t>(i)] + 1) +
             "].i = (int64_t)(" + v.len + ");\n";
    }
    if (k == FieldKind::kDouble) {
      std::string num = v.kind == FieldKind::kDouble
                            ? v.num
                            : "(double)(" + v.num + ")";
      return "  " + base + ".d = " + num + ";\n";
    }
    std::string num = v.kind == FieldKind::kDouble
                          ? "(int64_t)(" + v.num + ")"
                          : v.num;
    return "  " + base + ".i = " + num + ";\n";
  }

  /// Hash expression over the named key fields of `row`.
  std::string HashKeys(const std::string& row, const Schema& s,
                       const SlotMap& m, const std::vector<std::string>& keys) {
    std::string h;
    for (const auto& k : keys) {
      TVal v = Slot(row, s, m, k);
      std::string piece =
          v.kind == FieldKind::kString
              ? "lb2_hash_str(" + v.ptr + ", " + v.len + ")"
              : "lb2_hash_i64(" +
                    (v.kind == FieldKind::kDouble ? "(int64_t)" + v.num
                                                  : v.num) +
                    ")";
      h = h.empty() ? piece : "lb2_hash_combine(" + h + ", " + piece + ")";
    }
    return h;
  }

  /// Equality expression between stored row `a` and probe row `b`.
  std::string KeysEqual(const std::string& a, const Schema& as,
                        const SlotMap& am, const std::vector<std::string>& ak,
                        const std::string& b, const Schema& bs,
                        const SlotMap& bm,
                        const std::vector<std::string>& bk) {
    std::string out;
    for (size_t i = 0; i < ak.size(); ++i) {
      TVal x = Slot(a, as, am, ak[i]);
      TVal y = Slot(b, bs, bm, bk[i]);
      std::string piece;
      if (x.kind == FieldKind::kString) {
        piece = "lb2_str_eq(" + x.ptr + ", " + x.len + ", " + y.ptr + ", " +
                y.len + ")";
      } else if (x.kind == FieldKind::kDouble ||
                 y.kind == FieldKind::kDouble) {
        piece = "(" + Dbl(x) + " == " + Dbl(y) + ")";
      } else {
        piece = "(" + Num(x) + " == " + Num(y) + ")";
      }
      out = out.empty() ? piece : out + " && " + piece;
    }
    return out;
  }

  /// Copies all fields of `src` (schema ss) into a fresh stack row.
  std::string MaterializeConcat(const std::string& dst, const Schema& ds,
                                const SlotMap& dm, const std::string& a,
                                int a_width, const std::string& b,
                                int b_width) {
    std::string c = "  lb2t_val " + dst + "[" + std::to_string(dm.width) +
                    "];\n";
    c += "  memcpy(" + dst + ", " + a + ", sizeof(lb2t_val) * " +
         std::to_string(a_width) + ");\n";
    c += "  memcpy(" + dst + " + " + std::to_string(a_width) + ", " + b +
         ", sizeof(lb2t_val) * " + std::to_string(b_width) + ");\n";
    return c;
  }

  // -- Operator templates ------------------------------------------------------

  std::string GenOp(const PlanRef& p, const Consumer& consume) {
    Schema out = plan::OutputSchema(p, *db_);
    SlotMap m(out);
    switch (p->type) {
      case OpType::kScan: {
        const rt::Table& t = db_->table(p->table);
        std::string i = Fresh("i");
        std::string row = Fresh("r");
        std::string c = "  for (int64_t " + i + " = 0; " + i + " < " +
                        std::to_string(t.num_rows()) + "LL; " + i + "++) {\n";
        c += "  lb2t_val " + row + "[" + std::to_string(m.width) + "];\n";
        for (int f = 0; f < out.size(); ++f) {
          const auto& fld = out.field(f);
          std::string v = BindColumn(p->table, fld.name);
          std::string base =
              row + "[" + std::to_string(m.slot[static_cast<size_t>(f)]) + "]";
          switch (fld.kind) {
            case FieldKind::kInt64:
              c += "  " + base + ".i = " + v + "[" + i + "];\n";
              break;
            case FieldKind::kDouble:
              c += "  " + base + ".d = " + v + "[" + i + "];\n";
              break;
            case FieldKind::kDate:
              c += "  " + base + ".i = (int64_t)" + v + "[" + i + "];\n";
              break;
            case FieldKind::kString: {
              std::string lv = col_vars_[p->table + "." + fld.name + ":l"];
              c += "  " + base + ".p = " + v + "[" + i + "];\n";
              c += "  " + row + "[" +
                   std::to_string(m.slot[static_cast<size_t>(f)] + 1) +
                   "].i = (int64_t)" + lv + "[" + i + "];\n";
              break;
            }
          }
        }
        c += consume(row);
        c += "  }\n";
        return c;
      }
      case OpType::kSelect: {
        Schema cs = plan::OutputSchema(p->children[0], *db_);
        SlotMap cm(cs);
        return GenOp(p->children[0], [&](const std::string& row) {
          TVal pred = GenExpr(p->predicate, row, cs, cm);
          return "  if (" + Num(pred) + ") {\n" + consume(row) + "  }\n";
        });
      }
      case OpType::kProject: {
        Schema cs = plan::OutputSchema(p->children[0], *db_);
        SlotMap cm(cs);
        return GenOp(p->children[0], [&](const std::string& row) {
          std::string nr = Fresh("r");
          std::string c = "  lb2t_val " + nr + "[" +
                          std::to_string(m.width) + "];\n";
          for (size_t i = 0; i < p->exprs.size(); ++i) {
            TVal v = GenExpr(p->exprs[i], row, cs, cm);
            c += StoreSlot(nr, m, static_cast<int>(i),
                           out.field(static_cast<int>(i)).kind, v);
          }
          c += consume(nr);
          return c;
        });
      }
      case OpType::kLimit: {
        std::string cnt = Fresh("lim");
        decls_ += "  int64_t " + cnt + " = 0;\n";
        return GenOp(p->children[0], [&](const std::string& row) {
          return "  if (" + cnt + " < " + std::to_string(p->limit) +
                 "LL) {\n" + consume(row) + "  " + cnt + "++;\n  }\n";
        });
      }
      case OpType::kHashJoin:
        return GenHashJoin(p, out, m, consume);
      case OpType::kSemiJoin:
      case OpType::kAntiJoin:
        return GenSemiAnti(p, consume);
      case OpType::kLeftCountJoin:
        return GenLeftCount(p, out, m, consume);
      case OpType::kGroupAgg:
        return GenGroupAgg(p, out, m, consume);
      case OpType::kScalarAgg:
        return GenScalarAgg(p, out, m, consume);
      case OpType::kSort:
        return GenSort(p, out, m, consume);
    }
    LB2_CHECK(false);
    return "";
  }

  std::string GenHashJoin(const PlanRef& p, const Schema& out,
                          const SlotMap& m, const Consumer& consume) {
    Schema ls = plan::OutputSchema(p->children[0], *db_);
    Schema rs = plan::OutputSchema(p->children[1], *db_);
    SlotMap lm(ls), rm(rs);
    std::string ht = Fresh("ht");
    decls_ += "  lb2t_ht* " + ht + " = lb2t_ht_new(65536);\n";
    frees_ += "  lb2t_ht_free(" + ht + ");\n";
    std::string c = GenOp(p->children[0], [&](const std::string& row) {
      return "  lb2t_ht_insert(" + ht + ", " +
             HashKeys(row, ls, lm, p->left_keys) + ", lb2t_row_copy(" + row +
             ", " + std::to_string(lm.width) + "));\n";
    });
    c += GenOp(p->children[1], [&](const std::string& row) {
      std::string h = Fresh("h");
      std::string nd = Fresh("nd");
      std::string lrow = Fresh("lr");
      std::string jr = Fresh("jr");
      std::string body = "  int64_t " + h + " = " +
                         HashKeys(row, rs, rm, p->right_keys) + ";\n";
      body += "  for (lb2t_node* " + nd + " = " + ht + "->b[(uint64_t)" + h +
              " % (uint64_t)" + ht + "->n]; " + nd + "; " + nd + " = " + nd +
              "->next) {\n";
      body += "  lb2t_val* " + lrow + " = " + nd + "->row;\n";
      body += "  if (" +
              KeysEqual(lrow, ls, lm, p->left_keys, row, rs, rm,
                        p->right_keys) +
              ") {\n";
      body += MaterializeConcat(jr, out, m, lrow, lm.width, row, rm.width);
      if (p->predicate != nullptr) {
        TVal pred = GenExpr(p->predicate, jr, out, m);
        body += "  if (" + Num(pred) + ") {\n" + consume(jr) + "  }\n";
      } else {
        body += consume(jr);
      }
      body += "  }\n  }\n";
      return body;
    });
    return c;
  }

  std::string GenSemiAnti(const PlanRef& p, const Consumer& consume) {
    bool anti = p->type == OpType::kAntiJoin;
    Schema ls = plan::OutputSchema(p->children[0], *db_);
    Schema rs = plan::OutputSchema(p->children[1], *db_);
    SlotMap lm(ls), rm(rs);
    // The joint schema is only well-formed (and only needed) when a
    // correlated residual predicate exists.
    Schema joint = p->predicate != nullptr ? ls.Concat(rs) : ls;
    SlotMap jm(joint);
    std::string ht = Fresh("ht");
    decls_ += "  lb2t_ht* " + ht + " = lb2t_ht_new(65536);\n";
    frees_ += "  lb2t_ht_free(" + ht + ");\n";
    std::string c = GenOp(p->children[1], [&](const std::string& row) {
      return "  lb2t_ht_insert(" + ht + ", " +
             HashKeys(row, rs, rm, p->right_keys) + ", lb2t_row_copy(" + row +
             ", " + std::to_string(rm.width) + "));\n";
    });
    c += GenOp(p->children[0], [&](const std::string& row) {
      std::string h = Fresh("h");
      std::string nd = Fresh("nd");
      std::string found = Fresh("fnd");
      std::string body = "  int64_t " + h + " = " +
                         HashKeys(row, ls, lm, p->left_keys) + ";\n";
      body += "  bool " + found + " = false;\n";
      body += "  for (lb2t_node* " + nd + " = " + ht + "->b[(uint64_t)" + h +
              " % (uint64_t)" + ht + "->n]; " + nd + "; " + nd + " = " + nd +
              "->next) {\n";
      body += "  lb2t_val* rr = " + nd + "->row;\n";
      body += "  if (" +
              KeysEqual("rr", rs, rm, p->right_keys, row, ls, lm,
                        p->left_keys) +
              ") {\n";
      if (p->predicate != nullptr) {
        std::string jr = Fresh("jr");
        body += MaterializeConcat(jr, joint, jm, row, lm.width, "rr",
                                  rm.width);
        TVal pred = GenExpr(p->predicate, jr, joint, jm);
        body += "  if (" + Num(pred) + ") { " + found +
                " = true; break; }\n";
      } else {
        body += "  " + found + " = true; break;\n";
      }
      body += "  }\n  }\n";
      body += "  if (" + std::string(anti ? "!" : "") + found + ") {\n" +
              consume(row) + "  }\n";
      return body;
    });
    return c;
  }

  std::string GenLeftCount(const PlanRef& p, const Schema& out,
                           const SlotMap& m, const Consumer& consume) {
    Schema ls = plan::OutputSchema(p->children[0], *db_);
    Schema rs = plan::OutputSchema(p->children[1], *db_);
    SlotMap lm(ls), rm(rs);
    // Stored rows: right key slots ++ one count slot; key schema mirrors the
    // right key fields.
    Schema key_schema;
    for (const auto& k : p->right_keys) key_schema.Add(rs.Get(k));
    SlotMap km(key_schema);
    std::string ht = Fresh("ht");
    decls_ += "  lb2t_ht* " + ht + " = lb2t_ht_new(65536);\n";
    frees_ += "  lb2t_ht_free(" + ht + ");\n";
    std::string c = GenOp(p->children[1], [&](const std::string& row) {
      std::string h = Fresh("h");
      std::string nd = Fresh("nd");
      std::string kr = Fresh("kr");
      std::string body = "  int64_t " + h + " = " +
                         HashKeys(row, rs, rm, p->right_keys) + ";\n";
      body += "  lb2t_node* " + nd + " = " + ht + "->b[(uint64_t)" + h +
              " % (uint64_t)" + ht + "->n];\n";
      body += "  for (; " + nd + "; " + nd + " = " + nd + "->next) {\n";
      std::vector<std::string> key_names;
      for (int i = 0; i < key_schema.size(); ++i) {
        key_names.push_back(key_schema.field(i).name);
      }
      body += "  if (" +
              KeysEqual(nd + std::string("->row"), key_schema, km, key_names,
                        row, rs, rm, p->right_keys) +
              ") break;\n  }\n";
      body += "  if (" + nd + ") { " + nd + "->row[" +
              std::to_string(km.width) + "].i++; } else {\n";
      body += "  lb2t_val " + kr + "[" + std::to_string(km.width + 1) +
              "];\n";
      for (size_t i = 0; i < p->right_keys.size(); ++i) {
        TVal v = Slot(row, rs, rm, p->right_keys[i]);
        body += StoreSlot(kr, km, static_cast<int>(i),
                          key_schema.field(static_cast<int>(i)).kind, v);
      }
      body += "  " + kr + "[" + std::to_string(km.width) + "].i = 1;\n";
      body += "  lb2t_ht_insert(" + ht + ", " + h + ", lb2t_row_copy(" + kr +
              ", " + std::to_string(km.width + 1) + "));\n  }\n";
      return body;
    });
    c += GenOp(p->children[0], [&](const std::string& row) {
      std::string h = Fresh("h");
      std::string nd = Fresh("nd");
      std::string cnt = Fresh("cn");
      std::string nr = Fresh("r");
      std::string body = "  int64_t " + h + " = " +
                         HashKeys(row, ls, lm, p->left_keys) + ";\n";
      body += "  int64_t " + cnt + " = 0;\n";
      body += "  for (lb2t_node* " + nd + " = " + ht + "->b[(uint64_t)" + h +
              " % (uint64_t)" + ht + "->n]; " + nd + "; " + nd + " = " + nd +
              "->next) {\n";
      std::vector<std::string> key_names;
      for (int i = 0; i < key_schema.size(); ++i) {
        key_names.push_back(key_schema.field(i).name);
      }
      body += "  if (" +
              KeysEqual(nd + std::string("->row"), key_schema, km, key_names,
                        row, ls, lm, p->left_keys) +
              ") { " + cnt + " = " + nd + "->row[" +
              std::to_string(km.width) + "].i; break; }\n  }\n";
      body += "  lb2t_val " + nr + "[" + std::to_string(m.width) + "];\n";
      body += "  memcpy(" + nr + ", " + row + ", sizeof(lb2t_val) * " +
              std::to_string(lm.width) + ");\n";
      body += "  " + nr + "[" + std::to_string(lm.width) + "].i = " + cnt +
              ";\n";
      body += consume(nr);
      return body;
    });
    return c;
  }

  std::string GenGroupAgg(const PlanRef& p, const Schema& out,
                          const SlotMap& m, const Consumer& consume) {
    Schema cs = plan::OutputSchema(p->children[0], *db_);
    SlotMap cm(cs);
    int ng = static_cast<int>(p->group_exprs.size());
    // Stored rows use the output layout: group slots then agg slots.
    std::string ht = Fresh("ht");
    decls_ += "  lb2t_ht* " + ht + " = lb2t_ht_new(65536);\n";
    frees_ += "  lb2t_ht_free(" + ht + ");\n";
    std::vector<std::string> group_names;
    for (int i = 0; i < ng; ++i) group_names.push_back(out.field(i).name);

    std::string c = GenOp(p->children[0], [&](const std::string& row) {
      std::string kr = Fresh("kr");
      std::string h = Fresh("h");
      std::string nd = Fresh("nd");
      // Materialize the key (and a fresh row in output layout).
      std::string body = "  lb2t_val " + kr + "[" + std::to_string(m.width) +
                         "];\n";
      for (int i = 0; i < ng; ++i) {
        TVal v = GenExpr(p->group_exprs[static_cast<size_t>(i)], row, cs, cm);
        body += StoreSlot(kr, m, i, out.field(i).kind, v);
      }
      body += "  int64_t " + h + " = " + HashKeys(kr, out, m, group_names) +
              ";\n";
      body += "  lb2t_node* " + nd + " = " + ht + "->b[(uint64_t)" + h +
              " % (uint64_t)" + ht + "->n];\n";
      body += "  for (; " + nd + "; " + nd + " = " + nd + "->next) {\n";
      body += "  if (" +
              KeysEqual(nd + std::string("->row"), out, m, group_names, kr,
                        out, m, group_names) +
              ") break;\n  }\n";
      // Update in place or insert with initial values.
      body += "  if (" + nd + ") {\n";
      body += AggUpdates(p, out, m, cs, cm, nd + std::string("->row"), row,
                         /*init=*/false);
      body += "  } else {\n";
      body += AggUpdates(p, out, m, cs, cm, kr, row, /*init=*/true);
      body += "  lb2t_ht_insert(" + ht + ", " + h + ", lb2t_row_copy(" + kr +
              ", " + std::to_string(m.width) + "));\n  }\n";
      return body;
    });
    // Emit all groups.
    std::string bidx = Fresh("b");
    std::string nd = Fresh("nd");
    c += "  for (int64_t " + bidx + " = 0; " + bidx + " < " + ht + "->n; " +
         bidx + "++) {\n";
    c += "  for (lb2t_node* " + nd + " = " + ht + "->b[" + bidx + "]; " + nd +
         "; " + nd + " = " + nd + "->next) {\n";
    std::string row = Fresh("r");
    c += "  lb2t_val* " + row + " = " + nd + "->row;\n";
    c += consume(row);
    c += "  }\n  }\n";
    return c;
  }

  /// Agg slot updates for a stored row; when `init` the slots are assigned
  /// their first value.
  std::string AggUpdates(const PlanRef& p, const Schema& out,
                         const SlotMap& m, const Schema& cs,
                         const SlotMap& cm, const std::string& acc_row,
                         const std::string& in_row, bool init) {
    int ng = static_cast<int>(p->group_exprs.size());
    std::string body;
    for (size_t a = 0; a < p->aggs.size(); ++a) {
      const auto& spec = p->aggs[a];
      int fi = ng + static_cast<int>(a);
      FieldKind k = out.field(fi).kind;
      std::string base = acc_row + "[" +
                         std::to_string(m.slot[static_cast<size_t>(fi)]) + "]";
      std::string acc = k == FieldKind::kDouble ? base + ".d" : base + ".i";
      std::string v;
      if (spec.kind != AggKind::kCountStar) {
        TVal tv = GenExpr(spec.expr, in_row, cs, cm);
        v = k == FieldKind::kDouble ? Dbl(tv) : Num(tv);
      }
      switch (spec.kind) {
        case AggKind::kCountStar:
          body += init ? "  " + acc + " = 1;\n" : "  " + acc + "++;\n";
          break;
        case AggKind::kSum:
          body += init ? "  " + acc + " = " + v + ";\n"
                       : "  " + acc + " += " + v + ";\n";
          break;
        case AggKind::kMin:
          body += init ? "  " + acc + " = " + v + ";\n"
                       : "  if (" + v + " < " + acc + ") " + acc + " = " + v +
                             ";\n";
          break;
        case AggKind::kMax:
          body += init ? "  " + acc + " = " + v + ";\n"
                       : "  if (" + v + " > " + acc + ") " + acc + " = " + v +
                             ";\n";
          break;
      }
    }
    return body;
  }

  std::string GenScalarAgg(const PlanRef& p, const Schema& out,
                           const SlotMap& m, const Consumer& consume) {
    Schema cs = plan::OutputSchema(p->children[0], *db_);
    SlotMap cm(cs);
    std::string acc = Fresh("acc");
    decls_ += "  lb2t_val " + acc + "[" + std::to_string(m.width) + "];\n";
    std::string c;
    for (size_t a = 0; a < p->aggs.size(); ++a) {
      FieldKind k = out.field(static_cast<int>(a)).kind;
      std::string base =
          acc + "[" + std::to_string(m.slot[a]) + "]";
      std::string sentinel;
      switch (p->aggs[a].kind) {
        case AggKind::kMin: sentinel = k == FieldKind::kDouble ? "1e300" : "INT64_MAX"; break;
        case AggKind::kMax: sentinel = k == FieldKind::kDouble ? "-1e300" : "INT64_MIN"; break;
        default: sentinel = "0";
      }
      c += "  " + base + (k == FieldKind::kDouble ? ".d = " : ".i = ") +
           sentinel + ";\n";
    }
    c += GenOp(p->children[0], [&](const std::string& row) {
      std::string body;
      for (size_t a = 0; a < p->aggs.size(); ++a) {
        const auto& spec = p->aggs[a];
        FieldKind k = out.field(static_cast<int>(a)).kind;
        std::string base = acc + "[" + std::to_string(m.slot[a]) + "]";
        std::string av = k == FieldKind::kDouble ? base + ".d" : base + ".i";
        std::string v;
        if (spec.kind != AggKind::kCountStar) {
          TVal tv = GenExpr(spec.expr, row, cs, cm);
          v = k == FieldKind::kDouble ? Dbl(tv) : Num(tv);
        }
        switch (spec.kind) {
          case AggKind::kCountStar: body += "  " + av + "++;\n"; break;
          case AggKind::kSum: body += "  " + av + " += " + v + ";\n"; break;
          case AggKind::kMin:
            body += "  if (" + v + " < " + av + ") " + av + " = " + v + ";\n";
            break;
          case AggKind::kMax:
            body += "  if (" + v + " > " + av + ") " + av + " = " + v + ";\n";
            break;
        }
      }
      return body;
    });
    c += consume(acc);
    return c;
  }

  std::string GenSort(const PlanRef& p, const Schema& out, const SlotMap& m,
                      const Consumer& consume) {
    std::string vec = Fresh("vec");
    decls_ += "  lb2t_vec " + vec + " = {0, 0, 0};\n";
    frees_ += "  lb2t_vec_free(&" + vec + ");\n";
    std::string c = GenOp(p->children[0], [&](const std::string& row) {
      return "  lb2t_vec_push(&" + vec + ", lb2t_row_copy(" + row + ", " +
             std::to_string(m.width) + "));\n";
    });
    // Generated comparator at file scope.
    std::string cmp = Fresh("lb2t_cmp");
    std::string fn = "static int " + cmp +
                     "(const void* pa, const void* pb) {\n"
                     "  const lb2t_val* a = *(lb2t_val* const*)pa;\n"
                     "  const lb2t_val* b = *(lb2t_val* const*)pb;\n";
    for (const auto& k : p->sort_keys) {
      int i = out.IndexOf(k.name);
      std::string sa = "a[" + std::to_string(m.slot[static_cast<size_t>(i)]) + "]";
      std::string sb = "b[" + std::to_string(m.slot[static_cast<size_t>(i)]) + "]";
      const char* lt = k.asc ? "-1" : "1";
      const char* gt = k.asc ? "1" : "-1";
      switch (out.field(i).kind) {
        case FieldKind::kInt64:
        case FieldKind::kDate:
          fn += "  if (" + sa + ".i < " + sb + ".i) return " + lt +
                "; if (" + sa + ".i > " + sb + ".i) return " + gt + ";\n";
          break;
        case FieldKind::kDouble:
          fn += "  if (" + sa + ".d < " + sb + ".d) return " + lt +
                "; if (" + sa + ".d > " + sb + ".d) return " + gt + ";\n";
          break;
        case FieldKind::kString: {
          std::string la = "a[" +
                           std::to_string(m.slot[static_cast<size_t>(i)] + 1) +
                           "].i";
          std::string lb = "b[" +
                           std::to_string(m.slot[static_cast<size_t>(i)] + 1) +
                           "].i";
          fn += "  { int32_t cres = lb2_str_cmp(" + sa + ".p, (int32_t)" + la +
                ", " + sb + ".p, (int32_t)" + lb + "); if (cres) return " +
                (k.asc ? "cres" : "-cres") + "; }\n";
          break;
        }
      }
    }
    fn += "  return a < b ? -1 : (a > b ? 1 : 0);\n}\n";
    functions_ += fn;
    c += "  qsort(" + vec + ".rows, (size_t)" + vec +
         ".n, sizeof(lb2t_val*), " + cmp + ");\n";
    std::string i = Fresh("i");
    std::string row = Fresh("r");
    c += "  for (int64_t " + i + " = 0; " + i + " < " + vec + ".n; " + i +
         "++) {\n";
    c += "  lb2t_val* " + row + " = " + vec + ".rows[" + i + "];\n";
    c += consume(row);
    c += "  }\n";
    return c;
  }

  const plan::Query& query_;
  const rt::Database* db_;
  rt::EnvLayout* env_ = nullptr;
  int counter_ = 0;
  std::string binds_;
  std::string decls_;
  std::string frees_;
  std::string functions_;
  std::map<std::string, std::string> col_vars_;
};

}  // namespace

CompiledQuery CompileTemplateQuery(const plan::Query& q,
                                   const rt::Database& db,
                                   const std::string& tag) {
  plan::ValidateQuery(q, db);
  Stopwatch gen_timer;
  rt::EnvLayout env;
  TemplateGen gen(q, db);
  std::string source = gen.Generate(&env);
  double gen_ms = gen_timer.ElapsedMs();

  std::string leaked = stage::FindMutableFileScopeState(source);
  LB2_CHECK_MSG(leaked.empty(),
                ("mutable file-scope state in generated code: " + leaked)
                    .c_str());

  CompiledQuery cq;
  cq.mod_ = stage::Jit::CompileSource(source, tag);
  cq.fn_ = cq.mod_->entry("lb2_query");
  cq.ctx_bytes_ = cq.mod_->ctx_bytes();
  cq.env_ = env.Materialize(db);
  cq.codegen_ms_ = gen_ms;
  return cq;
}

}  // namespace lb2::compile
