// Checks a counter struct's field table (common/fields.h) against its
// printers, so a field can never again be missing from one of them.

#ifndef FUTURERAND_TESTS_TESTSUPPORT_FIELD_TABLE_H_
#define FUTURERAND_TESTS_TESTSUPPORT_FIELD_TABLE_H_

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "futurerand/common/fields.h"
#include "futurerand/common/json.h"

namespace futurerand::testsupport {

/// For an all-int64 counter struct T: the table lists every member once,
/// and with every field set to a distinct value each `name=value` token
/// appears in ToString() and each `"name":value` pair in
/// JsonLine::AddFields.
template <typename T>
void ExpectEveryFieldPrinted() {
  constexpr size_t kTableSize = std::tuple_size_v<decltype(T::Fields())>;
  static_assert(sizeof(T) == kTableSize * sizeof(int64_t),
                "a member is missing from the field table");
  T value;
  int64_t next = 1001;
  ForEachField(value, [&](const char*, int64_t& field) { field = next++; });

  // ToString is "Label{a=1 b=2}": collect its whitespace-separated tokens.
  const std::string text = value.ToString();
  const size_t open = text.find('{');
  ASSERT_NE(open, std::string::npos) << text;
  ASSERT_EQ(text.back(), '}') << text;
  std::istringstream body(text.substr(open + 1, text.size() - open - 2));
  std::set<std::string> tokens;
  for (std::string token; body >> token;) {
    tokens.insert(token);
  }
  EXPECT_EQ(tokens.size(), kTableSize) << text;

  const std::string json = JsonLine().AddFields(value).Str();
  std::set<std::string> names;
  ForEachField(value, [&](const char* name, const int64_t& field) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate field " << name;
    const std::string number = std::to_string(field);
    EXPECT_EQ(tokens.count(std::string(name) + "=" + number), 1u)
        << name << " missing from " << text;
    std::string pair = "\"";
    pair += name;
    pair += "\":";
    pair += number;
    const size_t at = json.find(pair);
    ASSERT_NE(at, std::string::npos) << name << " missing from " << json;
    const char after = json[at + pair.size()];
    EXPECT_TRUE(after == ',' || after == '}') << json;
  });
}

}  // namespace futurerand::testsupport

#endif  // FUTURERAND_TESTS_TESTSUPPORT_FIELD_TABLE_H_
