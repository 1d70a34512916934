// One-line JSON emission for machine-readable tool output.

#ifndef FUTURERAND_COMMON_JSON_H_
#define FUTURERAND_COMMON_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "futurerand/common/fields.h"

namespace futurerand {

/// Builds one machine-readable JSON object line (the --json output of the
/// benches and the frserve/frload tools, grep-able in CI logs). Keys and
/// string values must not need escaping — tool-controlled identifiers only.
class JsonLine {
 public:
  JsonLine& Add(const std::string& key, const std::string& value) {
    return Append(key, "\"" + value + "\"");
  }
  JsonLine& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonLine& Add(const std::string& key, int64_t value) {
    return Append(key, std::to_string(value));
  }
  JsonLine& Add(const std::string& key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonLine& Add(const std::string& key, double value) {
    // JSON has no inf/nan literals; a tiny run can produce them (zero or
    // denormal stage durations), and one bad field would break every
    // downstream parser of the whole line. Emit 0 instead.
    if (!std::isfinite(value)) {
      value = 0.0;
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return Append(key, buffer);
  }

  /// Adds one key per entry of `table` (T::Fields() by default, see
  /// common/fields.h): a counter struct's field names are its JSON keys.
  template <typename T, typename Table = decltype(T::Fields())>
  JsonLine& AddFields(const T& value, const Table& table = T::Fields()) {
    ForEachField(
        value, [&](const char* name, const auto& field) { Add(name, field); },
        table);
    return *this;
  }

  /// The assembled line, e.g. {"bench":"throughput","n":1000}.
  std::string Str() const { return "{" + body_ + "}"; }

 private:
  JsonLine& Append(const std::string& key, const std::string& raw) {
    if (!body_.empty()) {
      body_ += ",";
    }
    body_ += "\"" + key + "\":" + raw;
    return *this;
  }

  std::string body_;
};

}  // namespace futurerand

#endif  // FUTURERAND_COMMON_JSON_H_
