#include "util/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace flowmotif {
namespace {

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return argv;
}

TEST(FlagsTest, DefaultsApplyWithoutArgs) {
  FlagParser flags;
  flags.AddInt64("n", 7, "count");
  flags.AddString("name", "x", "name");
  flags.AddBool("verbose", false, "verbosity");
  flags.AddDouble("ratio", 0.5, "ratio");
  auto argv = Argv({});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags.GetInt64("n"), 7);
  EXPECT_EQ(flags.GetString("name"), "x");
  EXPECT_FALSE(flags.GetBool("verbose"));
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 0.5);
}

TEST(FlagsTest, EqualsSyntax) {
  FlagParser flags;
  flags.AddInt64("n", 0, "");
  flags.AddDouble("d", 0, "");
  flags.AddString("s", "", "");
  auto argv = Argv({"--n=42", "--d=2.5", "--s=hello"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags.GetInt64("n"), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d"), 2.5);
  EXPECT_EQ(flags.GetString("s"), "hello");
}

TEST(FlagsTest, SpaceSeparatedValueSyntax) {
  FlagParser flags;
  flags.AddInt64("n", 0, "");
  auto argv = Argv({"--n", "99"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags.GetInt64("n"), 99);
}

TEST(FlagsTest, BoolForms) {
  FlagParser flags;
  flags.AddBool("a", false, "");
  flags.AddBool("b", true, "");
  flags.AddBool("c", false, "");
  auto argv = Argv({"--a", "--no-b", "--c=true"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(flags.GetBool("a"));
  EXPECT_FALSE(flags.GetBool("b"));
  EXPECT_TRUE(flags.GetBool("c"));
}

TEST(FlagsTest, NegativeNumbers) {
  FlagParser flags;
  flags.AddInt64("n", 0, "");
  flags.AddDouble("d", 0, "");
  auto argv = Argv({"--n=-5", "--d=-1.25"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags.GetInt64("n"), -5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d"), -1.25);
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  FlagParser flags;
  flags.AddInt64("n", 0, "");
  auto argv = Argv({"input.txt", "--n=1", "output.txt"});
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.txt");
  EXPECT_EQ(flags.positional()[1], "output.txt");
}

TEST(FlagsTest, UnknownFlagIsError) {
  FlagParser flags;
  auto argv = Argv({"--mystery=1"});
  Status s = flags.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, BadIntegerIsError) {
  // Past int64 in either direction is rejected, not clamped.
  for (const char* arg :
       {"--n=abc", "--n=99999999999999999999", "--n=-99999999999999999999"}) {
    FlagParser flags;
    flags.AddInt64("n", 0, "");
    auto argv = Argv({arg});
    const Status status =
        flags.Parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
  }
}

TEST(FlagsTest, BadBoolIsError) {
  FlagParser flags;
  flags.AddBool("b", false, "");
  auto argv = Argv({"--b=maybe"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagsTest, MissingValueIsError) {
  FlagParser flags;
  flags.AddInt64("n", 0, "");
  auto argv = Argv({"--n"});
  EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagsTest, HelpStringListsFlags) {
  FlagParser flags;
  flags.AddInt64("alpha", 1, "the alpha knob");
  flags.AddBool("beta", true, "the beta switch");
  std::string help = flags.HelpString();
  EXPECT_NE(help.find("--alpha"), std::string::npos);
  EXPECT_NE(help.find("the alpha knob"), std::string::npos);
  EXPECT_NE(help.find("--beta"), std::string::npos);
}

TEST(FlagsTest, ValidateThreadsFlagBounds) {
  EXPECT_TRUE(ValidateThreadsFlag(0).ok());  // 0 = all hardware threads
  EXPECT_TRUE(ValidateThreadsFlag(1).ok());
  EXPECT_TRUE(ValidateThreadsFlag(4096).ok());
  EXPECT_FALSE(ValidateThreadsFlag(-1).ok());
  EXPECT_FALSE(ValidateThreadsFlag(4097).ok());
  // The message names the flag so CLI/bench rejections read clearly.
  EXPECT_NE(ValidateThreadsFlag(-2).message().find("--threads"),
            std::string::npos);
}

TEST(FlagsDeathTest, UnregisteredAccessAborts) {
  FlagParser flags;
  EXPECT_DEATH(flags.GetInt64("ghost"), "unregistered flag");
}

TEST(FlagsDeathTest, TypeMismatchAborts) {
  FlagParser flags;
  flags.AddInt64("n", 0, "");
  EXPECT_DEATH(flags.GetString("n"), "type mismatch");
}

}  // namespace
}  // namespace flowmotif
