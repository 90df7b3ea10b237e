// One field list per JSON schema: the writer, the reader and the
// validator all walk it.
//
// A schema is one function template
//
//   template <class Io, class R> void fields(Io& io, R& r);
//
// that names every member of the document once, in document order.
// JsonWriter walks it over a const struct and builds the document;
// JsonReader walks it over a fresh struct and fills it from a parsed
// document.  Reading is validating.  The reader requires every member
// the list does not mark kOptional, with its type; converts every
// integer through json_integer; rejects every member the list does not
// name; and enforces the schema's own rules (io.check).  It collects
// every violation under the path of the object it is found in
// (`jobs[1].options.route: member 'via_cost' has the wrong type`,
// `stages[0]: missing required member 'ms'`) and finish() throws them
// all in one Error.  A field function speaks to either Io through:
//
//   io.field(key, v)            a string, bool, number or integer, or a
//                               vector of them
//   io.text(key, v, to, from)   a value stored as the string to(v); `from`
//                               throws Error for a string it rejects
//   io.object(key, body)        a nested object
//   io.section(key, present, body)
//                               null, or an object when `present`
//   io.embed(key, present, v, to_json, from_json)
//                               null, or a document with its own schema
//   io.array(key, xs, body)     an array of objects
//   io.map(key, m)              an object of name -> scalar
//   io.map(key, m, body)        an object of name -> object
//   io.check(ok, message)       a schema rule; the writer skips it and
//                               the reader builds `message` (a string or
//                               a callable returning one) only when !ok
//
// `body` is a nullary callable for objects and sections and takes the
// element for arrays and maps.  A list that is read but never written
// (the campaign spec) may pass kOptional after the arguments of field
// and object: the member may then be absent, and the call returns
// whether the member was there and read.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/error.h"
#include "obs/json.h"

namespace secflow {

/// `d` as a T when it is a whole number inside T's range; nullopt for a
/// fraction, an out-of-range value or a non-finite one (casting such a
/// double to an integer is undefined behaviour).
template <class T>
std::optional<T> json_integer(double d) {
  // [min, 2^digits) — both bounds are exact doubles, unlike max().
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(d >= lo && d < hi) || d != std::trunc(d)) return std::nullopt;
  return static_cast<T>(d);
}

class JsonWriter {
 public:
  /// The document built so far.
  JsonValue take() { return std::move(doc_); }

  template <class T>
  void field(const char* key, const T& v) {
    cur_->set(key, JsonValue(v));
  }
  template <class T>
  void field(const char* key, const std::vector<T>& xs) {
    JsonValue a = JsonValue::array();
    for (const T& x : xs) a.push_back(JsonValue(x));
    cur_->set(key, std::move(a));
  }

  template <class T, class To, class From>
  void text(const char* key, const T& v, To&& to, From&&) {
    cur_->set(key, std::string(to(v)));
  }

  template <class Body>
  void object(const char* key, Body&& body) {
    cur_->set(key, nest(body));
  }

  template <class Body>
  void section(const char* key, bool present, Body&& body) {
    cur_->set(key, present ? nest(body) : JsonValue());
  }

  template <class T, class To, class From>
  void embed(const char* key, bool present, const T& v, To&& to_json,
             From&&) {
    cur_->set(key, present ? to_json(v) : JsonValue());
  }

  template <class T, class Body>
  void array(const char* key, const std::vector<T>& xs, Body&& body) {
    JsonValue a = JsonValue::array();
    for (const T& x : xs) a.push_back(nest([&] { body(x); }));
    cur_->set(key, std::move(a));
  }

  template <class Map>
  void map(const char* key, const Map& m) {
    JsonValue o = JsonValue::object();
    for (const auto& [name, v] : m) o.set(name, JsonValue(v));
    cur_->set(key, std::move(o));
  }
  template <class Map, class Body>
  void map(const char* key, const Map& m, Body&& body) {
    JsonValue o = JsonValue::object();
    for (const auto& [name, v] : m) o.set(name, nest([&] { body(v); }));
    cur_->set(key, std::move(o));
  }

  template <class Msg>
  void check(bool, Msg&&) {}

 private:
  /// A new object holding what `body` writes.
  template <class Body>
  JsonValue nest(Body&& body) {
    JsonValue o = JsonValue::object();
    JsonValue* outer = std::exchange(cur_, &o);
    body();
    cur_ = outer;
    return o;
  }

  JsonValue doc_ = JsonValue::object();
  JsonValue* cur_ = &doc_;
};

/// Whether a member may be absent from a document JsonReader reads.
enum Presence { kRequired, kOptional };

class JsonReader {
 public:
  /// Reads `doc`, which must outlive the reader; `doc_name` heads the
  /// Error ("flow report").  A document that is not an object throws at
  /// once: none of its members can be read.
  JsonReader(const JsonValue& doc, const char* doc_name)
      : cur_(&doc), doc_name_(doc_name) {
    if (!doc.is_object()) {
      throw Error(std::string(doc_name) + ": document is not an object");
    }
  }

  template <class T>
  bool field(const char* key, T& out, Presence presence = kRequired) {
    const JsonValue* v = member(key, presence);
    return v != nullptr && convert(*v, out, key, false);
  }
  template <class T>
  bool field(const char* key, std::vector<T>& xs,
             Presence presence = kRequired) {
    const JsonValue* a = typed(key, JsonValue::Kind::kArray, presence);
    if (a == nullptr) return false;
    xs.clear();
    for (const JsonValue& v : a->items()) {
      T x{};
      if (!convert(v, x, key, true)) return false;
      xs.push_back(std::move(x));
    }
    return true;
  }

  template <class T, class To, class From>
  void text(const char* key, T& v, To&&, From&& from) {
    std::string s;
    if (field(key, s)) parse(key, [&] { v = from(s); });
  }

  template <class Body>
  bool object(const char* key, Body&& body, Presence presence = kRequired) {
    const JsonValue* v = typed(key, JsonValue::Kind::kObject, presence);
    if (v != nullptr) nest(*v, key, body);
    return v != nullptr;
  }

  template <class Body>
  void section(const char* key, bool& present, Body&& body) {
    if (const JsonValue* v = nullable(key, present)) nest(*v, key, body);
  }

  template <class T, class To, class From>
  void embed(const char* key, bool& present, T& v, To&&, From&& from_json) {
    if (const JsonValue* doc = nullable(key, present)) {
      parse(key, [&] { v = from_json(*doc); });
    }
  }

  template <class T, class Body>
  void array(const char* key, std::vector<T>& xs, Body&& body) {
    xs.clear();
    const JsonValue* a = typed(key, JsonValue::Kind::kArray, kRequired);
    if (a == nullptr) return;
    for (std::size_t i = 0; i < a->items().size(); ++i) {
      const JsonValue& v = a->items()[i];
      T& x = xs.emplace_back();
      if (!object_element(v, key)) continue;
      nest(v, std::string(key) + "[" + std::to_string(i) + "]",
           [&] { body(x); });
    }
  }

  template <class Map>
  void map(const char* key, Map& m) {
    m.clear();
    const JsonValue* o = typed(key, JsonValue::Kind::kObject, kRequired);
    if (o == nullptr) return;
    for (const auto& [name, v] : o->members()) {
      typename Map::value_type::second_type x{};
      if (!convert(v, x, key, true)) return;
      m.insert(m.end(), typename Map::value_type(name, std::move(x)));
    }
  }
  template <class Map, class Body>
  void map(const char* key, Map& m, Body&& body) {
    m.clear();
    const JsonValue* o = typed(key, JsonValue::Kind::kObject, kRequired);
    if (o == nullptr) return;
    for (const auto& [name, v] : o->members()) {
      if (!object_element(v, key)) continue;
      typename Map::value_type::second_type x{};
      nest(v, std::string(key) + "." + name, [&] { body(x); });
      m.insert(m.end(), typename Map::value_type(name, std::move(x)));
    }
  }

  template <class Msg>
  void check(bool ok, Msg&& message) {
    if (ok) return;
    if constexpr (std::is_invocable_v<Msg>) {
      violation(message());
    } else {
      violation(message);
    }
  }

  /// Rejects the document's unknown members, then throws one Error
  /// listing every violation the walk found, followed by `more` (rules
  /// the caller checks on what was read).  Returns when there is none.
  void finish(std::vector<std::string> more = {}) {
    reject_unknown(*cur_, 0);  // the walk has returned to the root
    violations_.insert(violations_.end(), more.begin(), more.end());
    throw_violations(doc_name_, violations_);
  }

 private:
  void violation(const std::string& what) {
    violations_.push_back(path_.empty() ? what : path_ + ": " + what);
  }

  /// Runs `convert`, which reads the member `key` with a parser of its
  /// own, and records the Error it throws.
  template <class Convert>
  void parse(const char* key, Convert&& convert) {
    try {
      convert();
    } catch (const Error& e) {
      violation(member_name(key) + ": " + e.what());
    }
  }

  static std::string member_name(const char* key) {
    return std::string("member '") + key + "'";
  }

  /// The member `key` of the current object, or nullptr when it is
  /// absent (a violation unless optional).  Names `key` as a member of
  /// the schema either way.
  const JsonValue* member(const char* key, Presence presence) {
    seen_.push_back(key);
    const JsonValue* v = cur_->find(key);
    if (v == nullptr && presence == kRequired) {
      violation(std::string("missing required member '") + key + "'");
    }
    return v;
  }

  /// The member `key` when it is of `kind`; nullptr when it is absent or
  /// of another kind.
  const JsonValue* typed(const char* key, JsonValue::Kind kind,
                         Presence presence) {
    const JsonValue* v = member(key, presence);
    if (v == nullptr || v->kind() == kind) return v;
    violation(member_name(key) + " has the wrong type");
    return nullptr;
  }

  /// The member `key` when it is an object, nullptr when it is null or
  /// another kind (the latter a violation); `present` says which.
  const JsonValue* nullable(const char* key, bool& present) {
    const JsonValue* v = member(key, kRequired);
    present = v != nullptr && v->is_object();
    if (v != nullptr && !present && !v->is_null()) {
      violation(member_name(key) + " must be null or an object");
    }
    return present ? v : nullptr;
  }

  bool object_element(const JsonValue& v, const char* key) {
    if (!v.is_object()) {
      violation(member_name(key) + " has a non-object element");
    }
    return v.is_object();
  }

  /// Every member of `obj` that the walk since `first_seen` did not name
  /// is a violation.
  void reject_unknown(const JsonValue& obj, std::size_t first_seen) {
    const auto named = seen_.begin() + static_cast<std::ptrdiff_t>(first_seen);
    for (const auto& [name, v] : obj.members()) {
      if (std::find(named, seen_.end(), name) == seen_.end()) {
        violation("unknown member '" + name + "'");
      }
    }
    seen_.resize(first_seen);
  }

  /// `v` (the member `key`, or one of its elements) as a T; false, after
  /// recording the violation, when it is not one.
  template <class T>
  bool convert(const JsonValue& v, T& out, const char* key, bool element) {
    constexpr bool is_string = std::is_same_v<T, std::string>;
    constexpr bool is_bool = std::is_same_v<T, bool>;
    const JsonValue::Kind kind = is_string ? JsonValue::Kind::kString
                                 : is_bool ? JsonValue::Kind::kBool
                                           : JsonValue::Kind::kNumber;
    if (v.kind() != kind) {
      const char* name = is_string ? "string" : is_bool ? "bool" : "number";
      violation(member_name(key) + (element ? std::string(" has a non-") +
                                                  name + " element"
                                            : " has the wrong type"));
      return false;
    }
    if constexpr (is_string) {
      out = v.as_string();
    } else if constexpr (is_bool) {
      out = v.as_bool();
    } else if constexpr (std::is_floating_point_v<T>) {
      out = v.as_number();
    } else {
      const std::optional<T> n = json_integer<T>(v.as_number());
      if (!n) {
        using Lim = std::numeric_limits<T>;
        violation(member_name(key) +
                  (element ? " must hold integers in ["
                           : " must be an integer in [") +
                  std::to_string(Lim::min()) + ", " +
                  std::to_string(Lim::max()) + "]");
        return false;
      }
      out = *n;
    }
    return true;
  }

  /// Walks `body` over the object `v`, found at `segment` below the
  /// current path, then rejects the members of `v` it did not name.
  template <class Body>
  void nest(const JsonValue& v, const std::string& segment, Body&& body) {
    const JsonValue* outer = std::exchange(cur_, &v);
    const std::size_t path_size = path_.size();
    const std::size_t first_seen = seen_.size();
    path_ += path_.empty() ? segment : "." + segment;
    body();
    reject_unknown(v, first_seen);
    path_.resize(path_size);
    cur_ = outer;
  }

  const JsonValue* cur_;
  const char* doc_name_;
  std::string path_;                ///< of cur_; empty at the root
  std::vector<const char*> seen_;   ///< members named in the open objects
  std::vector<std::string> violations_;
};

}  // namespace secflow
