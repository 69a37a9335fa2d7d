#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/cli.hpp"

namespace capmem {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return Cli(static_cast<int>(v.size()), v.data());
}

TEST(Cli, EqualsAndSpaceForms) {
  Cli c = make({"--mode=SNC4", "--iters", "100"});
  EXPECT_EQ(c.get_string("mode", "QUAD"), "SNC4");
  EXPECT_EQ(c.get_int("iters", 1), 100);
  c.finish();
}

TEST(Cli, DefaultsWhenAbsent) {
  Cli c = make({});
  EXPECT_EQ(c.get_string("mode", "QUAD"), "QUAD");
  EXPECT_EQ(c.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(c.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(c.get_flag("fast"));
  c.finish();
}

TEST(Cli, BareFlagIsTrue) {
  Cli c = make({"--fast"});
  EXPECT_TRUE(c.get_flag("fast"));
  c.finish();
}

TEST(Cli, FlagFalseForms) {
  Cli c = make({"--fast=false", "--slow=0"});
  EXPECT_FALSE(c.get_flag("fast", true));
  EXPECT_FALSE(c.get_flag("slow", true));
  c.finish();
}

TEST(Cli, UnknownOptionThrowsOnFinish) {
  Cli c = make({"--bogus=1"});
  c.get_int("real", 0);
  EXPECT_THROW(c.finish(), CheckError);
}

TEST(Cli, NonDashArgumentRejected) {
  EXPECT_THROW(make({"positional"}), CheckError);
}

// Malformed numbers fail with a CheckError naming the flag (never an
// uncaught std::invalid_argument), including trailing garbage that a
// prefix parse would accept.
void expect_bad_value(Cli& c, bool as_int, const std::string& flag) {
  try {
    if (as_int) {
      c.get_int(flag, 0);
    } else {
      c.get_double(flag, 0);
    }
    ADD_FAILURE() << "--" << flag << " accepted a malformed value";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos)
        << e.what();
  }
}

TEST(Cli, MalformedNumbersNameTheFlag) {
  Cli c = make({"--iters=abc", "--n=12abc", "--big=99999999999999999999",
                "--x=fast", "--y=1.5e", "--z="});
  expect_bad_value(c, true, "iters");
  expect_bad_value(c, true, "n");
  expect_bad_value(c, true, "big");
  expect_bad_value(c, false, "x");
  expect_bad_value(c, false, "y");
  expect_bad_value(c, false, "z");
}

TEST(Cli, NegativeAndExponentNumbersParse) {
  Cli c = make({"--n=-3", "--x=-2.5e-3"});
  EXPECT_EQ(c.get_int("n", 0), -3);
  EXPECT_DOUBLE_EQ(c.get_double("x", 0), -2.5e-3);
  c.finish();
}

TEST(Cli, DoubleParsing) {
  Cli c = make({"--x=3.25"});
  EXPECT_DOUBLE_EQ(c.get_double("x", 0), 3.25);
  c.finish();
}

}  // namespace
}  // namespace capmem
