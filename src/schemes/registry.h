// SchemeRegistry — the string-keyed factory for every grouping scheme.
//
// Benches, examples, and tools resolve schemes by name here, so a new
// scheme registers once and is immediately selectable everywhere a
// `--scheme=<name>` flag is parsed. Built-in keys:
//
//   sl         — Selective Landmarks (paper §3)
//   sdsl       — Server-Distance-sensitive SL (paper §4)
//   random     — shuffled round-robin baseline (no locality)
//   geo        — geographic-constraint leaders (arXiv:1704.04465)
//   proximity  — two-choice balanced allocation (arXiv:1610.05961)
//   ucc        — user-centric clustered cooperation (arXiv:1710.08582)
//
// The factories are pure (no global state), so one registry instance can
// be shared freely across threads; the schemes it creates are immutable
// after construction and safe to share the same way.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheme.h"

namespace ecgf::schemes {

/// Thrown by SchemeRegistry::make for unregistered names; the message
/// lists every registered key so CLI surfaces can print it verbatim.
class UnknownSchemeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SchemeEntry {
  std::string name;     ///< registry key (lower-case)
  std::string summary;  ///< one-liner for --help output
  /// The SL/SDSL factories honour the full SchemeConfig; the comparator
  /// schemes carry their own options and ignore it.
  std::function<std::unique_ptr<core::GroupingScheme>(
      const core::SchemeConfig&)>
      factory;
};

class SchemeRegistry {
 public:
  /// The registry with every built-in scheme registered (see above).
  static const SchemeRegistry& builtin();

  /// Register a scheme; the key must be non-empty and unused.
  void add(SchemeEntry entry);

  bool contains(std::string_view name) const;

  /// Instantiate by key. Throws UnknownSchemeError on a miss.
  std::unique_ptr<core::GroupingScheme> make(
      std::string_view name, const core::SchemeConfig& config = {}) const;

  /// Registered keys in registration order (the canonical table order:
  /// paper schemes first, then baseline, then comparators).
  std::vector<std::string> names() const;

  /// "a, b, c" — for error messages and --help text.
  std::string names_joined() const;

  const std::vector<SchemeEntry>& entries() const { return entries_; }

 private:
  const SchemeEntry* find(std::string_view name) const;

  std::vector<SchemeEntry> entries_;
};

}  // namespace ecgf::schemes
