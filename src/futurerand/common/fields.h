// Field tables for counter structs. A struct names each field once, in an
// X-macro list of X(type, name) entries that declares the members
// (FR_FIELD_MEMBER) and builds `static constexpr auto Fields()`, a
// std::tuple of Field entries (FR_FIELD_ENTRY). Every printer, JSON line
// and merge iterates that table, so a new counter can never be missing
// from one of them.

#ifndef FUTURERAND_COMMON_FIELDS_H_
#define FUTURERAND_COMMON_FIELDS_H_

#include <string>
#include <tuple>
#include <type_traits>

/// Declares one listed field, value-initialized.
#define FR_FIELD_MEMBER(type, name) type name{};
/// One listed field's table entry; the struct's `Self` alias must be in
/// scope.
#define FR_FIELD_ENTRY(type, name) ::futurerand::Field{#name, &Self::name},

namespace futurerand {

/// One table entry: the field's output name (also its JSON key) and its
/// member pointer.
template <typename T, typename M>
struct Field {
  const char* name;
  M T::*member;
};

/// Calls fn(name, value.*member) for every entry of `table` (T::Fields()
/// by default), in table order. `value` may be const.
template <typename T, typename Fn,
          typename Table = decltype(std::remove_const_t<T>::Fields())>
void ForEachField(T& value, Fn&& fn,
                  const Table& table = std::remove_const_t<T>::Fields()) {
  std::apply(
      [&](const auto&... field) { (fn(field.name, value.*field.member), ...); },
      table);
}

/// Adds every field of `from` into the same field of `into`.
template <typename T>
void AccumulateFields(T& into, const T& from) {
  std::apply(
      [&](const auto&... field) {
        ((into.*field.member += from.*field.member), ...);
      },
      T::Fields());
}

/// "Label{name=value name=value ...}" over the whole table.
template <typename T>
std::string FieldsToString(const char* label, const T& value) {
  std::string text = std::string(label) + "{";
  const char* separator = "";
  ForEachField(value, [&](const char* name, const auto& field) {
    text += separator;
    text += name;
    text += '=';
    text += std::to_string(field);
    separator = " ";
  });
  return text + "}";
}

}  // namespace futurerand

#endif  // FUTURERAND_COMMON_FIELDS_H_
