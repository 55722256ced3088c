#pragma once

/// \file json.h
/// The one JSON reader and writer in gamedb. Every machine-readable artifact
/// (telemetry snapshots, Chrome traces, flight-recorder bundles, e15 reports,
/// `gsl_lint --json`) quotes its strings with `Quote` and formats its
/// three-decimal numbers with `Fixed3`; every validator reads documents back
/// through `ParseJson`.
///
/// Only the leaf formatting is shared: each emitter still lays out its own
/// document, and each per-schema validator parses the raw bytes and checks
/// the shape itself, so an emitter bug cannot hide behind a shared
/// serializer.
///
/// Object member order is preserved as written (vector of pairs, not a map):
/// validators can assert deterministic key order where a schema promises it.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace gamedb::json {

/// Deepest container nesting ParseJson accepts: `kMaxDepth` nested arrays or
/// objects parse, one more is a ParseError. Bounds the recursion on hostile
/// input; every emitted schema nests far less.
inline constexpr int kMaxDepth = 64;

/// One parsed JSON value. A tagged tree, no clever variant: validators
/// pattern-match on `kind` and walk `members` / `elements` directly.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> elements;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> members;    // kObject

  bool Is(Kind k) const { return kind == k; }

  /// First member named `key`, or nullptr. Objects are small here; linear
  /// scan keeps insertion order available to callers.
  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses `text` as a single JSON document (trailing whitespace allowed,
/// trailing garbage is an error). Errors are ParseError and read
/// "json: <what> at offset N".
Result<JsonValue> ParseJson(const std::string& text);

/// `s` as a JSON string literal, quotes included. `"`, `\`, `\n`, `\r` and
/// `\t` get short escapes, other bytes below 0x20 become `\u00xx`, and every
/// other byte (UTF-8 included) is copied as is.
std::string Quote(std::string_view s);

/// `v` with exactly three decimals (`%.3f`, never scientific). Non-finite
/// values render as `0.000`, so the output is always a valid JSON number.
std::string Fixed3(double v);

}  // namespace gamedb::json
