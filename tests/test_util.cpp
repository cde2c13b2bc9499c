#include <gtest/gtest.h>

#include <set>

#include "util/hash.hpp"
#include "util/options.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hipmer::util {
namespace {

TEST(Hash, Mix64IsInjectiveish) {
  // Bijective mixers never collide on sequential inputs.
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 10000; ++i) out.insert(mix64(i));
  EXPECT_EQ(out.size(), 10000u);
}

TEST(Hash, Fmix64DiffersFromMix64) {
  int same = 0;
  for (std::uint64_t i = 0; i < 100; ++i) same += mix64(i) == fmix64(i);
  EXPECT_EQ(same, 0);
}

TEST(Hash, HashBytesDependsOnContent) {
  EXPECT_NE(hash_string("hello"), hash_string("hellp"));
  EXPECT_EQ(hash_string("hello"), hash_string("hello"));
  EXPECT_NE(hash_string(""), hash_string("a"));
}

TEST(Stats, N50KnownValues) {
  // Lengths 80,70,50,40,30,30 -> total 300, half 150; 80+70=150 -> N50=70.
  const auto stats = compute_assembly_stats({30, 70, 40, 80, 30, 50});
  EXPECT_EQ(stats.total_length, 300u);
  EXPECT_EQ(stats.n50, 70u);
  EXPECT_EQ(stats.l50, 2u);
  EXPECT_EQ(stats.max_length, 80u);
  EXPECT_EQ(stats.min_length, 30u);
  EXPECT_EQ(stats.num_sequences, 6u);
}

TEST(Stats, SingleSequence) {
  const auto stats = compute_assembly_stats(std::vector<std::uint64_t>{100});
  EXPECT_EQ(stats.n50, 100u);
  EXPECT_EQ(stats.l50, 1u);
  EXPECT_EQ(stats.n90, 100u);
}

TEST(Stats, EmptyInput) {
  const auto stats = compute_assembly_stats(std::vector<std::uint64_t>{});
  EXPECT_EQ(stats.num_sequences, 0u);
  EXPECT_EQ(stats.n50, 0u);
}

TEST(Stats, Summarize) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Table, FormatsAndCounts) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  EXPECT_EQ(t.num_rows(), 2u);
  const auto s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  const auto csv = t.to_csv();
  EXPECT_EQ(csv, "name,value\nalpha,1\nbeta,22\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt_pct(0.256, 1), "25.6%");
}

TEST(Options, ParsesFormsAndFallbacks) {
  // Note: a bare `--flag` consumes the following token as its value unless
  // that token starts with `--`, so positionals go before flags here.
  const char* argv[] = {"prog", "pos1", "--ranks", "16", "--genome=2000000",
                        "--rate", "0.5", "--verbose"};
  Options opts(8, argv);
  EXPECT_EQ(opts.get_int("ranks", 0), 16);
  EXPECT_EQ(opts.get_int("genome", 0), 2000000);
  EXPECT_TRUE(opts.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(opts.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(opts.get("missing", "dflt"), "dflt");
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos1");
}

}  // namespace
}  // namespace hipmer::util
