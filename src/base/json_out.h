#ifndef FMTK_BASE_JSON_OUT_H_
#define FMTK_BASE_JSON_OUT_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fmtk {

/// The one JSON string escaper (PR 9): server responses, diagnostic
/// --json output, planner --explain and the bench emitters all render
/// through it, so every producer agrees on the rules:
///
///   * '"' and '\\' get their short escapes, as do \b \f \n \r \t;
///   * other control bytes < 0x20 become \u00xx (JSON strings must not
///     contain raw control characters);
///   * 0x7f (DEL) and valid UTF-8 multi-byte sequences pass through
///     unchanged — JSON is UTF-8, escaping them is optional and keeping
///     them readable is worth more;
///   * bytes that do NOT form valid UTF-8 (stray continuation bytes,
///     overlong encodings, surrogate code points, sequences past
///     U+10FFFF, truncated tails) are replaced one byte at a time with
///     � (U+FFFD REPLACEMENT CHARACTER), so the output is always
///     valid UTF-8 JSON no matter what the input was. The seed escapers
///     passed such bytes through raw, which made fmtk_lint --json emit
///     byte-invalid documents for non-UTF-8 inputs.

namespace internal_json {

/// Length of the valid UTF-8 sequence starting at text[i], or 0 when the
/// bytes at i do not start one (checks continuation bytes, overlong forms,
/// surrogates and the U+10FFFF ceiling).
inline std::size_t Utf8SequenceLength(std::string_view text, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(text[k]);
  };
  const unsigned char b0 = byte(i);
  if (b0 < 0x80) {
    return 1;
  }
  std::size_t len;
  std::uint32_t cp;
  if ((b0 & 0xe0) == 0xc0) {
    len = 2;
    cp = b0 & 0x1f;
  } else if ((b0 & 0xf0) == 0xe0) {
    len = 3;
    cp = b0 & 0x0f;
  } else if ((b0 & 0xf8) == 0xf0) {
    len = 4;
    cp = b0 & 0x07;
  } else {
    return 0;  // continuation byte or 0xf8..0xff lead
  }
  if (i + len > text.size()) {
    return 0;  // truncated tail
  }
  for (std::size_t k = 1; k < len; ++k) {
    if ((byte(i + k) & 0xc0) != 0x80) {
      return 0;
    }
    cp = (cp << 6) | (byte(i + k) & 0x3f);
  }
  if (len == 2 && cp < 0x80) {
    return 0;  // overlong
  }
  if (len == 3 && cp < 0x800) {
    return 0;
  }
  if (len == 4 && cp < 0x10000) {
    return 0;
  }
  if (cp >= 0xd800 && cp <= 0xdfff) {
    return 0;  // surrogate code point
  }
  if (cp > 0x10ffff) {
    return 0;
  }
  return len;
}

}  // namespace internal_json

/// Appends the escaped content of `text` (no surrounding quotes).
inline void JsonAppendEscaped(std::string& out, std::string_view text) {
  for (std::size_t i = 0; i < text.size();) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    switch (c) {
      case '"':
        out += "\\\"";
        ++i;
        continue;
      case '\\':
        out += "\\\\";
        ++i;
        continue;
      case '\b':
        out += "\\b";
        ++i;
        continue;
      case '\f':
        out += "\\f";
        ++i;
        continue;
      case '\n':
        out += "\\n";
        ++i;
        continue;
      case '\r':
        out += "\\r";
        ++i;
        continue;
      case '\t':
        out += "\\t";
        ++i;
        continue;
      default:
        break;
    }
    if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      ++i;
      continue;
    }
    if (c < 0x80) {
      out += static_cast<char>(c);
      ++i;
      continue;
    }
    const std::size_t len = internal_json::Utf8SequenceLength(text, i);
    if (len == 0) {
      out += "\\ufffd";
      ++i;
      continue;
    }
    out.append(text.substr(i, len));
    i += len;
  }
}

/// Appends `text` as a quoted JSON string.
inline void JsonAppendString(std::string& out, std::string_view text) {
  out += '"';
  JsonAppendEscaped(out, text);
  out += '"';
}

/// `text` as a quoted JSON string.
inline std::string JsonQuote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  JsonAppendString(out, text);
  return out;
}

/// A finite double as a JSON number ("%.17g" round-trips exactly); NaN and
/// infinities — which JSON has no literals for — render as 0 / +-1e308
/// sentinels rather than producing an invalid document.
inline std::string JsonNumber(double value) {
  if (value != value) {
    return "0";
  }
  if (value > 1.7e308) {
    return "1e308";
  }
  if (value < -1.7e308) {
    return "-1e308";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// JSON object members. The caller opens the object with '{' and closes it;
// each member adds its own separating comma, so members can be written in
// any order and conditionally.

/// Appends `"key":` (after a comma unless the object was just opened).
inline void JsonKey(std::string& out, std::string_view key) {
  if (!out.empty() && out.back() != '{') {
    out += ',';
  }
  JsonAppendString(out, key);
  out += ':';
}

inline void JsonStringMember(std::string& out, std::string_view key,
                             std::string_view value) {
  JsonKey(out, key);
  JsonAppendString(out, value);
}

inline void JsonBoolMember(std::string& out, std::string_view key,
                           bool value) {
  JsonKey(out, key);
  out += value ? "true" : "false";
}

/// Integers are written exactly; floating-point values through JsonNumber.
template <typename Number>
void JsonNumberMember(std::string& out, std::string_view key, Number value) {
  static_assert(std::is_arithmetic_v<Number> && !std::is_same_v<Number, bool>);
  JsonKey(out, key);
  if constexpr (std::is_integral_v<Number>) {
    out += std::to_string(value);
  } else {
    out += JsonNumber(value);
  }
}

inline void JsonStringsMember(std::string& out, std::string_view key,
                              const std::vector<std::string>& values) {
  JsonKey(out, key);
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    JsonAppendString(out, values[i]);
  }
  out += ']';
}

}  // namespace fmtk

#endif  // FMTK_BASE_JSON_OUT_H_
