// The project's one JSON codec: exact double round-trips, deterministic
// dumps, a strict parser that rejects everything the protocol must reject,
// checked integer reads, and seeded property tests over random values and
// mutated documents.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using llp::Json;

TEST(Json, DumpSortsKeysDeterministically) {
  Json j;
  j["zulu"] = 1;
  j["alpha"] = 2;
  j["mike"] = 3;
  EXPECT_EQ(j.dump(), R"({"alpha":2,"mike":3,"zulu":1})");
}

TEST(Json, DoublesRoundTripBitwise) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           2.2780666679499829e-14,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -1.8905259173795150e-05};
  for (const double want : values) {
    Json j;
    j["residual"] = want;
    const auto back = Json::parse(j.dump());
    ASSERT_TRUE(back.has_value()) << j.dump();
    const double got = back->get_double("residual");
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "double did not survive the wire: " << j.dump();
  }
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  Json j;
  j["nan"] = std::nan("");
  j["inf"] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(j.dump(), R"({"inf":null,"nan":null})");
}

TEST(Json, IntegersPrintWithoutDecimalPoint) {
  Json j;
  j["job"] = 42;
  j["steps"] = 5000;
  EXPECT_EQ(j.dump(), R"({"job":42,"steps":5000})");
}

TEST(Json, StringEscapingRoundTrips) {
  Json j;
  j["s"] = std::string("line\nquote\"back\\slash\ttab\x01");
  const auto back = Json::parse(j.dump());
  ASSERT_TRUE(back.has_value()) << j.dump();
  EXPECT_EQ(back->get_string("s"), "line\nquote\"back\\slash\ttab\x01");
}

TEST(Json, ParsesNestedValues) {
  const auto j = Json::parse(
      R"({"jobs":[{"id":1,"ok":true},{"id":2,"ok":false}],"n":null})");
  ASSERT_TRUE(j.has_value());
  ASSERT_TRUE(j->find("jobs")->is_array());
  EXPECT_EQ(j->find("jobs")->array().size(), 2u);
  EXPECT_EQ(j->find("jobs")->array()[1].get_int("id"), 2);
  EXPECT_TRUE(j->find("n")->is_null());
}

TEST(Json, SurrogatePairsDecode) {
  const auto j = Json::parse(R"({"s":"\ud83d\ude00"})");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->get_string("s"), "\xF0\x9F\x98\x80");  // U+1F600
}

TEST(Json, MalformedInputsAreRejectedWithAnError) {
  const char* bad[] = {
      "",                         // empty
      "{",                        // unterminated object
      "{\"a\":1,}",               // trailing comma
      "{\"a\" 1}",                // missing colon
      "{'a':1}",                  // wrong quotes
      "[1 2]",                    // missing comma
      "01",                       // leading zero
      "1.",                       // digit required after point
      "1e",                       // digit required in exponent
      "nul",                      // bad literal
      "\"\\q\"",                  // bad escape
      "\"\\ud800\"",              // lone high surrogate
      "\"\\udc00\"",              // lone low surrogate
      "\"\x01\"",                 // raw control character
      "{} {}",                    // trailing garbage
      "{\"a\":1} x",              // trailing garbage after value
      "1e999",                    // out of double range
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(Json::parse(text, &error).has_value())
        << "accepted: " << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(Json, DepthLimitRejectsDeepNesting) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  for (int i = 0; i < 80; ++i) deep += ']';
  std::string error;
  EXPECT_FALSE(Json::parse(deep, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
  // 32 levels is comfortably inside the limit.
  std::string ok;
  for (int i = 0; i < 32; ++i) ok += '[';
  for (int i = 0; i < 32; ++i) ok += ']';
  EXPECT_TRUE(Json::parse(ok).has_value());
}

TEST(Json, TypedGettersFallBackOnMissingOrWrongType) {
  const auto j = Json::parse(R"({"s":"x","n":3,"b":true})");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->get_string("s"), "x");
  EXPECT_EQ(j->get_string("n", "fallback"), "fallback");  // wrong type
  EXPECT_EQ(j->get_int("missing", 7), 7);
  EXPECT_EQ(j->get_double("b", 2.5), 2.5);  // wrong type
  EXPECT_TRUE(j->get_bool("b"));
  EXPECT_EQ(j->find("missing"), nullptr);
}

TEST(Json, DumpNeverContainsNewlines) {
  Json j;
  j["multi"] = std::string("a\nb\rc");
  Json::Array arr;
  arr.push_back(j);
  arr.push_back(Json("x\ny"));
  const std::string line = Json(std::move(arr)).dump();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find('\r'), std::string::npos);
}

TEST(Json, IntegersAreCheckedNotTruncated) {
  EXPECT_EQ(Json(8).as_int<int>(), 8);
  EXPECT_EQ(Json(-2147483648.0).as_int<int>(), -2147483647 - 1);
  EXPECT_FALSE(Json(2147483648.0).as_int<int>().has_value());
  EXPECT_FALSE(Json(4294967304.0).as_int<int>().has_value());
  EXPECT_FALSE(Json(8.9).as_int<int>().has_value());
  EXPECT_FALSE(Json(1e300).as_int().has_value());
  EXPECT_FALSE(Json(-1).as_int<std::uint64_t>().has_value());
  EXPECT_FALSE(Json(std::nan("")).as_int().has_value());
  EXPECT_FALSE(Json("8").as_int().has_value());

  const auto j = Json::parse(R"({"n":8.9,"steps":12})");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->get_int("n", 7), 7);  // lenient getter: not an integer
  int steps = 0;
  int n = 3;
  int absent = 5;
  std::string error;
  EXPECT_TRUE(j->read_int("steps", &steps, &error));
  EXPECT_EQ(steps, 12);
  EXPECT_TRUE(j->read_int("absent", &absent, &error));
  EXPECT_EQ(absent, 5);
  EXPECT_FALSE(j->read_int("n", &n, &error));
  EXPECT_EQ(n, 3);
  EXPECT_EQ(error.rfind("n must be an integer", 0), 0u) << error;
  // One check covers type and range, and the message gives the field's
  // valid range, not the C++ type's.
  EXPECT_FALSE(j->read_int("steps", &steps, &error, 1, 10));
  EXPECT_EQ(error, "steps must be an integer in [1, 10], got 12");
  EXPECT_FALSE(j->read_int("n", &n, &error, 4, 4096));
  EXPECT_EQ(error.rfind("n must be an integer in [4, 4096], got 8.9", 0), 0u)
      << error;
}

// ---- property tests --------------------------------------------------------
// Fixed seeds, so every run checks the same cases; a failure prints the seed
// that reproduces it.

constexpr std::uint64_t kSeeds = 1000;

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// A control byte, printable ASCII (quotes and backslashes included), a
/// BMP character outside the surrogate block, or an astral character
/// (written as a surrogate pair when escaped).
unsigned random_code_point(llp::SplitMix64& rng) {
  switch (rng.below(4)) {
    case 0: return static_cast<unsigned>(rng.below(0x20));
    case 1: return static_cast<unsigned>(0x20 + rng.below(0x60));
    case 2: {
      const auto cp = static_cast<unsigned>(0x80 + rng.below(0xFF80));
      return cp >= 0xD800 && cp <= 0xDFFF ? cp - 0x800 : cp;
    }
    default: return static_cast<unsigned>(0x10000 + rng.below(0x100000));
  }
}

/// Code points as UTF-8, plus the odd stray byte >= 0x80: the codec passes
/// bytes through, valid UTF-8 or not.
std::string random_string(llp::SplitMix64& rng) {
  std::string s;
  for (std::uint64_t i = rng.below(10); i > 0; --i) {
    if (rng.below(8) == 0) {
      s += static_cast<char>(0x80 + rng.below(0x80));
    } else {
      append_utf8(s, random_code_point(rng));
    }
  }
  return s;
}

double random_double(llp::SplitMix64& rng) {
  switch (rng.below(3)) {
    case 0: {  // any bit pattern: subnormals, NaNs and infinities included
      const std::uint64_t bits = rng.next();
      double d;
      std::memcpy(&d, &bits, sizeof d);
      return d;
    }
    case 1:  // an integer of any magnitude
      return static_cast<double>(static_cast<std::int64_t>(rng.next()) >>
                                 rng.below(64));
    default: return rng.uniform(-1e3, 1e3);
  }
}

/// A random value of every type; `budget` bounds the node count.
Json random_json(llp::SplitMix64& rng, int depth, int& budget) {
  --budget;
  const bool leaf = depth >= Json::kMaxDepth || budget <= 0;
  switch (rng.below(leaf ? 4 : 6)) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.below(2) == 1);
    case 2: return Json(random_double(rng));
    case 3: return Json(random_string(rng));
    case 4: {
      Json::Array a;
      for (std::uint64_t i = rng.below(5); i > 0; --i) {
        a.push_back(random_json(rng, depth + 1, budget));
      }
      return Json(std::move(a));
    }
    default: {
      Json::Object o;
      for (std::uint64_t i = rng.below(5); i > 0; --i) {
        o[random_string(rng)] = random_json(rng, depth + 1, budget);
      }
      return Json(std::move(o));
    }
  }
}

/// Every third seed wraps its value in containers right up to the depth cap.
Json random_document(std::uint64_t seed) {
  llp::SplitMix64 rng(seed);
  int budget = 64;
  Json v = random_json(rng, 0, budget);
  if (seed % 3 == 0) {
    v = Json(random_string(rng));
    for (int d = 0; d < Json::kMaxDepth; ++d) {
      if (rng.below(2) == 0) {
        v = Json(Json::Array{std::move(v)});
      } else {
        v = Json(Json::Object{{random_string(rng), std::move(v)}});
      }
    }
  }
  return v;
}

/// `got` is `want` read back off the wire: same shape, strings byte-equal,
/// finite doubles bit-equal, non-finite doubles turned into null.
bool same_value(const Json& want, const Json& got) {
  if (want.is_number() && !std::isfinite(want.as_double())) {
    return got.is_null();
  }
  if (want.type() != got.type()) return false;
  switch (want.type()) {
    case Json::Type::kNull: return true;
    case Json::Type::kBool: return want.as_bool() == got.as_bool();
    case Json::Type::kNumber: {
      const double a = want.as_double();
      const double b = got.as_double();
      return std::memcmp(&a, &b, sizeof a) == 0;
    }
    case Json::Type::kString: return want.as_string() == got.as_string();
    case Json::Type::kArray: {
      if (want.array().size() != got.array().size()) return false;
      for (std::size_t i = 0; i < want.array().size(); ++i) {
        if (!same_value(want.array()[i], got.array()[i])) return false;
      }
      return true;
    }
    case Json::Type::kObject: {
      if (want.object().size() != got.object().size()) return false;
      for (const auto& [key, value] : want.object()) {
        const Json* other = got.find(key);
        if (other == nullptr || !same_value(value, *other)) return false;
      }
      return true;
    }
  }
  return false;
}

TEST(JsonProperty, DumpParseDumpIsByteIdentical) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Json value = random_document(seed);
    const std::string text = value.dump();
    std::string error;
    const auto back = Json::parse(text, &error);
    ASSERT_TRUE(back.has_value()) << "seed " << seed << ": " << error;
    ASSERT_TRUE(same_value(value, *back)) << "seed " << seed << ": " << text;
    ASSERT_EQ(back->dump(), text) << "seed " << seed;
  }
}

TEST(JsonProperty, EscapedCodePointsDecodeToUtf8) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    llp::SplitMix64 rng(seed);
    std::string want;
    std::string text = "\"";
    for (std::uint64_t i = rng.below(10); i > 0; --i) {
      const unsigned cp = random_code_point(rng);
      append_utf8(want, cp);
      char buf[16];
      if (cp < 0x10000) {
        std::snprintf(buf, sizeof buf, "\\u%04X", cp);
      } else {
        std::snprintf(buf, sizeof buf, "\\u%04x\\u%04x",
                      0xD800 + ((cp - 0x10000) >> 10),
                      0xDC00 + ((cp - 0x10000) & 0x3FF));
      }
      text += buf;
    }
    text += '"';
    std::string error;
    const auto got = Json::parse(text, &error);
    ASSERT_TRUE(got.has_value()) << "seed " << seed << ": " << error;
    ASSERT_EQ(got->as_string(), want) << "seed " << seed << ": " << text;
  }
}

TEST(JsonProperty, MutatedDocumentsParseOrNameTheOffset) {
  static const char kBytes[] = "[]{}:,\"\\-+.0123456789eEtfnu \n\x01\x80";
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    llp::SplitMix64 rng(seed ^ 0x5eed5eed5eedULL);
    std::string text = random_document(seed).dump();
    for (std::uint64_t m = 1 + rng.below(3); m > 0; --m) {
      const auto pos = static_cast<std::size_t>(rng.below(text.size() + 1));
      switch (rng.below(3)) {
        case 0: text.resize(pos); break;
        case 1:
          if (pos < text.size()) {
            text[pos] = static_cast<char>(text[pos] ^ (1 << rng.below(8)));
          }
          break;
        default:
          text.insert(pos, 1,
                      rng.below(2) == 0
                          ? kBytes[rng.below(sizeof kBytes - 1)]
                          : static_cast<char>(rng.next()));
      }
    }
    std::string error;
    const auto got = Json::parse(text, &error);
    if (got.has_value()) {
      // Whatever parses is a fixed point of dump -> parse -> dump.
      const auto again = Json::parse(got->dump());
      ASSERT_TRUE(again.has_value()) << "seed " << seed;
      ASSERT_EQ(again->dump(), got->dump()) << "seed " << seed;
      continue;
    }
    const std::size_t at = error.rfind(" at offset ");
    ASSERT_NE(at, std::string::npos) << "seed " << seed << ": " << error;
    const unsigned long long offset = std::stoull(error.substr(at + 11));
    ASSERT_LE(offset, text.size()) << "seed " << seed << ": " << error;
  }
}

}  // namespace
