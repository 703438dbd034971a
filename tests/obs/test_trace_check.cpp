#include "obs/trace_check.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace {

llp::obs::TraceCheckResult check(const std::string& doc) {
  std::istringstream in(doc);
  return llp::obs::check_chrome_trace(in);
}

TEST(TraceCheck, AcceptsMinimalBalancedTrace) {
  const auto r = check(
      R"({"traceEvents":[
        {"name":"r","ph":"B","ts":0,"pid":0,"tid":0},
        {"name":"r","ph":"E","ts":5.5,"pid":0,"tid":0},
        {"name":"f","ph":"i","ts":1,"pid":0,"tid":0}
      ]})");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.events, 3u);
  EXPECT_EQ(r.begins, 1u);
  EXPECT_EQ(r.ends, 1u);
  EXPECT_EQ(r.instants, 1u);
  EXPECT_EQ(r.names, 2u);
}

TEST(TraceCheck, MetadataNeedsNoTimestamp) {
  const auto r = check(
      R"({"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,
          "args":{"name":"llp"}}]})");
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(TraceCheck, RejectsMalformedJson) {
  EXPECT_FALSE(check("{").ok);
  EXPECT_FALSE(check("").ok);
  EXPECT_FALSE(check(R"({"traceEvents":[}]})").ok);
  EXPECT_FALSE(check(R"({"traceEvents":[]} trailing)").ok);
  // Not JSON numbers: a leading zero, a point with no digit after it.
  EXPECT_FALSE(check(
      R"({"traceEvents":[{"name":"r","ph":"i","ts":0,"pid":01,"tid":0}]})").ok);
  EXPECT_FALSE(check(
      R"({"traceEvents":[{"name":"r","ph":"i","ts":1.,"pid":0,"tid":0}]})").ok);
  // Nesting far past the codec's cap fails cleanly instead of overflowing
  // the stack.
  const std::string deep = R"({"traceEvents":)" + std::string(200000, '[') +
                           std::string(200000, ']') + "}";
  const auto r = check(deep);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("invalid JSON"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("nesting"), std::string::npos) << r.error;
}

TEST(TraceCheck, RejectsWrongTopLevelShape) {
  EXPECT_FALSE(check(R"([1,2,3])").ok);
  EXPECT_FALSE(check(R"({"events":[]})").ok);
  EXPECT_FALSE(check(R"({"traceEvents":{}})").ok);
}

TEST(TraceCheck, RejectsMissingRequiredFields) {
  // No ts on a non-metadata event.
  EXPECT_FALSE(
      check(R"({"traceEvents":[{"name":"r","ph":"B","pid":0,"tid":0}]})").ok);
  // name must be a string.
  EXPECT_FALSE(check(
      R"({"traceEvents":[{"name":7,"ph":"B","ts":0,"pid":0,"tid":0}]})").ok);
  // Negative ts.
  EXPECT_FALSE(check(
      R"({"traceEvents":[{"name":"r","ph":"i","ts":-1,"pid":0,"tid":0}]})").ok);
}

TEST(TraceCheck, RejectsUnbalancedRows) {
  // Open B left at the end.
  EXPECT_FALSE(check(
      R"({"traceEvents":[{"name":"r","ph":"B","ts":0,"pid":0,"tid":0}]})").ok);
  // E with no open B.
  EXPECT_FALSE(check(
      R"({"traceEvents":[{"name":"r","ph":"E","ts":0,"pid":0,"tid":0}]})").ok);
  // E closing the wrong name.
  EXPECT_FALSE(check(
      R"({"traceEvents":[
        {"name":"a","ph":"B","ts":0,"pid":0,"tid":0},
        {"name":"b","ph":"E","ts":1,"pid":0,"tid":0}
      ]})").ok);
}

TEST(TraceCheck, BalanceIsPerRowNotGlobal) {
  // Same names on different tid rows balance independently.
  const auto ok = check(
      R"({"traceEvents":[
        {"name":"r","ph":"B","ts":0,"pid":0,"tid":0},
        {"name":"r","ph":"B","ts":1,"pid":0,"tid":1},
        {"name":"r","ph":"E","ts":2,"pid":0,"tid":1},
        {"name":"r","ph":"E","ts":3,"pid":0,"tid":0}
      ]})");
  EXPECT_TRUE(ok.ok) << ok.error;

  // A B on row 0 cannot be closed from row 1.
  const auto bad = check(
      R"({"traceEvents":[
        {"name":"r","ph":"B","ts":0,"pid":0,"tid":0},
        {"name":"r","ph":"E","ts":1,"pid":0,"tid":1}
      ]})");
  EXPECT_FALSE(bad.ok);
}

TEST(TraceCheck, HandlesEscapesAndNesting) {
  const auto r = check(
      R"({"traceEvents":[
        {"name":"outer \"quoted\" A","ph":"B","ts":0,"pid":0,"tid":0},
        {"name":"inner","ph":"B","ts":1,"pid":0,"tid":0},
        {"name":"inner","ph":"E","ts":2,"pid":0,"tid":0},
        {"name":"outer \"quoted\" A","ph":"E","ts":3,"pid":0,"tid":0}
      ]})");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.names, 2u);

  // \u escapes decode to the real characters: names that differ only
  // inside an escape are different names.
  const auto distinct = check(
      R"({"traceEvents":[
        {"name":"caf\u00e9","ph":"B","ts":0,"pid":0,"tid":0},
        {"name":"caf\u00e9","ph":"E","ts":1,"pid":0,"tid":0},
        {"name":"caf\u00e8","ph":"i","ts":2,"pid":0,"tid":0}
      ]})");
  EXPECT_TRUE(distinct.ok) << distinct.error;
  EXPECT_EQ(distinct.names, 2u);
  EXPECT_FALSE(check(
      R"({"traceEvents":[
        {"name":"caf\u00e9","ph":"B","ts":0,"pid":0,"tid":0},
        {"name":"caf\u00e8","ph":"E","ts":1,"pid":0,"tid":0}
      ]})").ok);
}

TEST(TraceCheck, MissingFileFails) {
  const auto r =
      llp::obs::check_chrome_trace_file("/nonexistent/path/trace.json");
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(TraceCheck, FormatCheckSummarizes) {
  const auto ok = check(R"({"traceEvents":[]})");
  EXPECT_NE(llp::obs::format_check(ok).find("OK"), std::string::npos);
  const auto bad = check("{");
  EXPECT_NE(llp::obs::format_check(bad).find("FAIL"), std::string::npos);
}

}  // namespace
