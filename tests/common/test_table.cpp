#include "cpm/common/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "cpm/common/error.hpp"

namespace cpm {
namespace {

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.25), "1.25");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.0), "0");
  EXPECT_EQ(format_double(-2.5), "-2.5");
}

TEST(Table, BuildsAndPrints) {
  Table t({"name", "value"});
  t.row().add("alpha").add(1.5);
  t.row().add("beta").add(std::size_t{42});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.at(0, 0), "alpha");
  EXPECT_EQ(t.at(1, 1), "42");

  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RejectsOverflowAndIncompleteRows) {
  Table t({"only"});
  EXPECT_THROW(t.add("no row yet"), Error);
  t.row().add("x");
  EXPECT_THROW(t.add("overflow"), Error);
  Table t2({"a", "b"});
  t2.row().add("unfinished");
  EXPECT_THROW(t2.row(), Error);      // previous row incomplete
  EXPECT_THROW(t2.to_string(), Error);
}

TEST(Table, AtValidatesRange) {
  Table t({"a"});
  t.row().add("x");
  EXPECT_THROW(static_cast<void>(t.at(1, 0)), Error);
  EXPECT_THROW(static_cast<void>(t.at(0, 1)), Error);
}

TEST(Table, NeedsAtLeastOneColumn) {
  EXPECT_THROW(Table({}), Error);
}

TEST(Banner, Prints) {
  std::ostringstream os;
  print_banner(os, "E1");
  EXPECT_EQ(os.str(), "\n== E1 ==\n");
}

}  // namespace
}  // namespace cpm
