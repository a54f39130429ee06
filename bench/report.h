// The one writer of bench JSON reports, and the `# shape-check:` lines that
// state the paper's qualitative claims on a run's numbers.
//
// A Report owns the keys every report carries — `schema`, `mode` ("full",
// "smoke" or "skipped"), `host_cores`, `peak_rss_bytes` (read when the file
// is written) and `shape_checks` — plus an insertion-ordered body that the
// bench fills with its own keys. finish() writes the file (none for an
// empty path) and returns the bench's exit status, nonzero exactly when a
// check failed: every bench ends with it, so a failed claim fails the run.
// A non-finite number in the body is written as null and fails the report.
// bench/check_report.cmake is the one CI gate over the written files.
//
// Dependency-free (std and getrusage only) so the perf harness can use it
// without bench_common.h's core/ includes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace ecgf::bench {

/// Peak resident set size of this process, in bytes (0 if the platform
/// has no getrusage). Linux reports ru_maxrss in KiB, macOS in bytes.
inline std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024ull;
#endif
#else
  return 0;
#endif
}

inline unsigned host_cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// A JSON value: bool, integer, number, string, array or object. Object
/// members keep their insertion order. Numbers print as a default
/// std::ostream prints a double.
class Json {
 public:
  Json(bool b) : kind_(Kind::kLiteral), text_(b ? "true" : "false") {}
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Json(T v) : kind_(Kind::kLiteral), text_(std::to_string(v)) {}
  Json(double v) : kind_(Kind::kNumber), number_(v) {}
  Json(std::string s) : kind_(Kind::kString), text_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json array() { return Json(Kind::kArray); }
  static Json object() { return Json(Kind::kObject); }
  /// `v` with `decimals` digits after the point: the format of fields that
  /// were written through std::to_string (6) or a fixed rounding.
  static Json fixed(double v, int decimals) {
    Json j(v);
    j.decimals_ = decimals;
    return j;
  }

  /// Append a member to an object; returns *this.
  Json& set(std::string key, Json value) {
    keys_.push_back(std::move(key));
    items_.push_back(std::move(value));
    return *this;
  }
  /// Append an element to an array; returns *this.
  Json& push(Json value) {
    items_.push_back(std::move(value));
    return *this;
  }

 private:
  friend class Report;
  enum class Kind { kLiteral, kNumber, kString, kArray, kObject };
  explicit Json(Kind kind) : kind_(kind) {}

  /// Paths (like `levels[2].static_miss_ms`) of every non-finite number.
  void find_non_finite(const std::string& path,
                       std::vector<std::string>& out) const {
    if (kind_ == Kind::kNumber && !std::isfinite(number_)) out.push_back(path);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      items_[i].find_non_finite(
          kind_ == Kind::kObject
              ? (path.empty() ? "" : path + ".") + keys_[i]
              : path + "[" + std::to_string(i) + "]",
          out);
    }
  }

  /// The top-level object and arrays directly under it put one element per
  /// line; everything deeper is written inline. Non-finite numbers are
  /// written as null.
  void write(std::ostream& os, int depth = 0) const {
    switch (kind_) {
      case Kind::kLiteral:
        os << text_;
        return;
      case Kind::kNumber: {
        if (!std::isfinite(number_)) {
          os << "null";
          return;
        }
        std::ostringstream s;
        if (decimals_ >= 0) s << std::fixed << std::setprecision(decimals_);
        s << number_;
        os << s.str();
        return;
      }
      case Kind::kString:
        write_string(os, text_);
        return;
      case Kind::kArray:
      case Kind::kObject:
        break;
    }
    const bool object = kind_ == Kind::kObject;
    const bool lines =
        !items_.empty() && (depth == 0 || (depth == 1 && !object));
    const std::string pad = lines ? std::string(2 * depth + 2, ' ') : "";
    os << (object ? '{' : '[') << (lines ? "\n" : "");
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) os << (lines ? ",\n" : ", ");
      os << pad;
      if (object) {
        write_string(os, keys_[i]);
        os << ": ";
      }
      items_[i].write(os, depth + 1);
    }
    if (lines) os << '\n' << std::string(2 * depth, ' ');
    os << (object ? '}' : ']');
  }

  /// A JSON string literal: `"` and `\` escaped, control characters as
  /// \u00XX, every other byte (UTF-8 included) as is.
  static void write_string(std::ostream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
      const auto byte = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        os << '\\' << c;
      } else if (byte < 0x20) {
        char escaped[8];
        std::snprintf(escaped, sizeof escaped, "\\u%04x", byte);
        os << escaped;
      } else {
        os << c;
      }
    }
    os << '"';
  }

  Kind kind_;
  std::string text_;  ///< literal token or string value
  double number_ = 0.0;
  int decimals_ = -1;  ///< -1: default ostream formatting
  std::vector<std::string> keys_;  ///< object member names
  std::vector<Json> items_;        ///< array elements or object values
};

/// One bench's report: the common keys, the bench's body and its checks.
class Report {
 public:
  /// `mode` is "full" or "smoke"; skip() turns the report into a waiver.
  Report(std::string schema, std::string mode)
      : schema_(std::move(schema)), mode_(std::move(mode)) {}

  /// Append a body key; body keys follow the common keys in this order.
  void set(std::string key, Json value) {
    body_.set(std::move(key), std::move(value));
  }

  /// Print this run's verdict on `claim`, a qualitative claim from the
  /// paper, as a `# shape-check:` line and record it; returns `ok`.
  bool check(const std::string& claim, bool ok) {
    std::cout << "# shape-check: " << (ok ? "PASS" : "FAIL") << " — " << claim
              << '\n';
    checks_.push(Json::object().set("claim", claim).set("pass", ok));
    failed_ |= !ok;
    return ok;
  }

  /// Mark the run as not performed: mode "skipped" and a `reason` key. A
  /// waiver carries no checks and passes the gate on its reason alone.
  void skip(const std::string& reason) {
    mode_ = "skipped";
    set("reason", reason);
  }

  /// Write the report to `path` (nothing is written when it is empty) and
  /// return the bench's exit status: 0 when every check passed and every
  /// body number is finite, 1 when not, 2 when the file cannot be written.
  int finish(const std::string& path) {
    std::vector<std::string> non_finite;
    body_.find_non_finite("", non_finite);
    if (!non_finite.empty()) {
      std::string claim = "every reported number is finite (not:";
      for (const std::string& p : non_finite) claim += " " + p;
      check(claim + ")", false);
    }
    const int status = failed_ ? 1 : 0;
    if (path.empty()) return status;

    Json doc = Json::object()
                   .set("schema", schema_)
                   .set("mode", mode_)
                   .set("host_cores", host_cores())
                   .set("peak_rss_bytes", peak_rss_bytes());
    for (std::size_t i = 0; i < body_.keys_.size(); ++i) {
      doc.set(body_.keys_[i], body_.items_[i]);
    }
    doc.set("shape_checks", checks_);
    std::ofstream out(path);
    doc.write(out);
    out << '\n';
    if (!out) {
      std::cerr << "failed to write " << path << '\n';
      return 2;
    }
    std::cout << "wrote " << path << '\n';
    return status;
  }

 private:
  std::string schema_;
  std::string mode_;
  Json body_ = Json::object();
  Json checks_ = Json::array();
  bool failed_ = false;
};

}  // namespace ecgf::bench
