// Terms: variables and constants, the building blocks of atoms (§2.3).
//
// Variables are dense non-negative integers local to one query. Whether a
// variable is distinguished (appears in the head) or existential is a
// property of the enclosing query, not of the term; see
// ConjunctiveQuery::IsDistinguished.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

namespace fdc::cq {

/// A variable or a constant. Constants are stored as strings; numeric
/// constants compare by their textual form, which suffices for equality-only
/// conjunctive queries (no arithmetic predicates in this fragment).
class Term {
 public:
  Term() : var_(0) {}

  static Term Var(int id) {
    Term t;
    t.var_ = id;
    return t;
  }
  static Term Const(std::string value) {
    Term t;
    t.var_ = kConstMarker;
    t.value_ = std::move(value);
    return t;
  }

  bool is_var() const { return var_ != kConstMarker; }
  bool is_const() const { return var_ == kConstMarker; }

  int var() const { return var_; }
  const std::string& value() const { return value_; }

  bool operator==(const Term& other) const {
    if (var_ != other.var_) return false;
    return is_var() || value_ == other.value_;
  }
  bool operator!=(const Term& other) const { return !(*this == other); }

  /// Total order (variables first by id, then constants by value), used for
  /// canonical sorting.
  bool operator<(const Term& other) const {
    if (is_var() != other.is_var()) return is_var();
    if (is_var()) return var_ < other.var_;
    return value_ < other.value_;
  }

 private:
  static constexpr int kConstMarker = -1;
  int var_;
  std::string value_;
};

/// Appends constant `value` to a structural key as 'value', escaping every
/// backslash and quote with a backslash. A key reader can then always find
/// where a constant ends, so no constant can pass for the separators around
/// it (two different atoms never print the same key); constants without
/// either character print unchanged.
inline void AppendQuotedConstant(std::string* key, const std::string& value) {
  key->push_back('\'');
  for (const char c : value) {
    if (c == '\\' || c == '\'') key->push_back('\\');
    key->push_back(c);
  }
  key->push_back('\'');
}

}  // namespace fdc::cq

namespace std {
template <>
struct hash<fdc::cq::Term> {
  size_t operator()(const fdc::cq::Term& t) const {
    if (t.is_var()) return hash<int>()(t.var()) * 0x9e3779b97f4a7c15ULL;
    return hash<string>()(t.value());
  }
};
}  // namespace std
