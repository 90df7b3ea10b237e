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
// document.  Reading is validating: the reader requires every member
// with its type, converts every integer through json_integer, enforces
// the schema's own rules (io.check) and throws Error naming the first
// violation — `<doc>: <where> lacks required member '<key>'`,
// `<doc>: <where> member '<key>' has the wrong type`, ...  A field
// function speaks to either Io through:
//
//   io.field(key, v)            a string, bool, number or integer, or a
//                               vector of them
//   io.text(key, v, to, from)   a value stored as the string to(v)
//   io.object(key, body)        a nested object
//   io.section(key, present, body)
//                               null, or an object when `present`
//   io.embed(key, present, v, to_json, from_json)
//                               null, or a document with its own schema
//   io.array(key, xs, label, body)
//                               an array of objects
//   io.map(key, m)              an object of name -> scalar
//   io.map(key, m, label, body) an object of name -> object
//   io.check(ok, message)       a schema rule; the writer skips it and
//                               the reader builds `message` (a string or
//                               a callable returning one) only when !ok
//
// `body` is a nullary callable for objects and sections and takes the
// element for arrays and maps; `label` names one element in the reader's
// errors ("stage lacks required member 'ms'").
#pragma once

#include <cmath>
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

/// "[min, max]" of T, for messages about json_integer's rejections.
template <class T>
std::string json_integer_range() {
  return "[" + std::to_string(std::numeric_limits<T>::min()) + ", " +
         std::to_string(std::numeric_limits<T>::max()) + "]";
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
  void array(const char* key, const std::vector<T>& xs, const char*,
             Body&& body) {
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
  void map(const char* key, const Map& m, const char*, Body&& body) {
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

class JsonReader {
 public:
  /// Reads `doc`, which must outlive the reader.  `doc_name` starts every
  /// error ("flow report"); `where` names the root object in them.
  JsonReader(const JsonValue& doc, const char* doc_name,
             const char* where = "document")
      : root_(&doc), cur_(&doc), where_(where), doc_name_(doc_name) {
    check(doc.is_object(),
          [&] { return std::string(where) + " is not an object"; });
  }

  template <class T>
  void field(const char* key, T& out) const {
    convert(member(key), out, key, false);
  }
  template <class T>
  void field(const char* key, std::vector<T>& xs) const {
    const JsonValue& a = typed(key, JsonValue::Kind::kArray);
    xs.clear();
    for (const JsonValue& v : a.items()) {
      T x{};
      convert(v, x, key, true);
      xs.push_back(std::move(x));
    }
  }

  template <class T, class To, class From>
  void text(const char* key, T& v, To&&, From&& from) const {
    std::string s;
    field(key, s);
    v = from(s);
  }

  template <class Body>
  void object(const char* key, Body&& body) {
    nest(typed(key, JsonValue::Kind::kObject), key, body);
  }

  template <class Body>
  void section(const char* key, bool& present, Body&& body) {
    const JsonValue* v = nullable(key);
    present = v != nullptr;
    if (present) nest(*v, key, body);
  }

  template <class T, class To, class From>
  void embed(const char* key, bool& present, T& v, To&&, From&& from_json) {
    const JsonValue* doc = nullable(key);
    present = doc != nullptr;
    if (present) v = from_json(*doc);
  }

  template <class T, class Body>
  void array(const char* key, std::vector<T>& xs, const char* label,
             Body&& body) {
    const JsonValue& a = typed(key, JsonValue::Kind::kArray);
    xs.clear();
    for (const JsonValue& v : a.items()) {
      require_object_element(v, key);
      T& x = xs.emplace_back();
      nest(v, label, [&] { body(x); });
    }
  }

  template <class Map>
  void map(const char* key, Map& m) const {
    m.clear();
    for (const auto& [name, v] : typed(key, JsonValue::Kind::kObject)
                                     .members()) {
      typename Map::value_type::second_type x{};
      convert(v, x, key, true);
      m.insert(m.end(), typename Map::value_type(name, std::move(x)));
    }
  }
  template <class Map, class Body>
  void map(const char* key, Map& m, const char* label, Body&& body) {
    m.clear();
    for (const auto& [name, v] : typed(key, JsonValue::Kind::kObject)
                                     .members()) {
      require_object_element(v, key);
      typename Map::value_type::second_type x{};
      nest(v, label, [&] { body(x); });
      m.insert(m.end(), typename Map::value_type(name, std::move(x)));
    }
  }

  template <class Msg>
  void check(bool ok, Msg&& message) const {
    if (ok) return;
    if constexpr (std::is_invocable_v<Msg>) {
      fail(message());
    } else {
      fail(message);
    }
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error(std::string(doc_name_) + ": " + what);
  }

  std::string member_name(const char* key) const {
    return std::string(where_) + " member '" + key + "'";
  }

  const JsonValue& member(const char* key) const {
    const JsonValue* v = cur_->find(key);
    check(v != nullptr, [&] {
      return std::string(where_) + " lacks required member '" + key + "'";
    });
    return *v;
  }

  const JsonValue& typed(const char* key, JsonValue::Kind kind) const {
    const JsonValue& v = member(key);
    check(v.kind() == kind,
          [&] { return member_name(key) + " has the wrong type"; });
    return v;
  }

  /// The member `key` when it is an object, nullptr when it is null.
  const JsonValue* nullable(const char* key) const {
    const JsonValue* v = cur_->find(key);
    check(v != nullptr && (v->is_null() || v->is_object()), [&] {
      const std::string where =
          cur_ == root_ ? "" : std::string(where_) + " ";
      return where + key + " must be null or an object";
    });
    return v->is_object() ? v : nullptr;
  }

  void require_object_element(const JsonValue& v, const char* key) const {
    check(v.is_object(),
          [&] { return member_name(key) + " has a non-object element"; });
  }

  /// `v` (the member `key`, or one of its elements) as a T.
  template <class T>
  void convert(const JsonValue& v, T& out, const char* key,
               bool element) const {
    constexpr bool is_string = std::is_same_v<T, std::string>;
    constexpr bool is_bool = std::is_same_v<T, bool>;
    const JsonValue::Kind kind = is_string ? JsonValue::Kind::kString
                                 : is_bool ? JsonValue::Kind::kBool
                                           : JsonValue::Kind::kNumber;
    check(v.kind() == kind, [&] {
      const char* name = is_string ? "string" : is_bool ? "bool" : "number";
      return member_name(key) + (element ? std::string(" has a non-") +
                                               name + " element"
                                         : " has the wrong type");
    });
    if constexpr (is_string) {
      out = v.as_string();
    } else if constexpr (is_bool) {
      out = v.as_bool();
    } else if constexpr (std::is_floating_point_v<T>) {
      out = v.as_number();
    } else {
      const std::optional<T> n = json_integer<T>(v.as_number());
      check(n.has_value(), [&] {
        return member_name(key) +
               (element ? " must hold integers in "
                        : " must be an integer in ") +
               json_integer_range<T>();
      });
      out = *n;
    }
  }

  template <class Body>
  void nest(const JsonValue& v, const char* where, Body&& body) {
    const JsonValue* outer = std::exchange(cur_, &v);
    const char* outer_where = std::exchange(where_, where);
    body();
    cur_ = outer;
    where_ = outer_where;
  }

  const JsonValue* root_;
  const JsonValue* cur_;
  const char* where_;
  const char* doc_name_;
};

}  // namespace secflow
