#include <gtest/gtest.h>

#include "hwstar/perf/report.h"

namespace hwstar::perf {
namespace {

TEST(ReportTableTest, RendersAlignedColumns) {
  ReportTable table("demo", {"name", "value"});
  table.AddRow({"short", "1"});
  table.AddRow({"a-much-longer-name", "123456"});
  std::string s = table.ToString();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(s.find("123456"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ReportTableTest, NumFormatting) {
  EXPECT_EQ(ReportTable::Num(uint64_t{42}), "42");
  EXPECT_EQ(ReportTable::Num(0.0), "0");
  EXPECT_EQ(ReportTable::Num(1.5), "1.500");
  EXPECT_EQ(ReportTable::Num(123456.7), "123457");
}

TEST(ReportTableTest, CsvExport) {
  ReportTable table("csv", {"name", "value"});
  table.AddRow({"plain", "1"});
  table.AddRow({"with,comma", "2"});
  table.AddRow({"with\"quote", "3"});
  const std::string csv = table.ToCsv();
  EXPECT_EQ(csv,
            "name,value\n"
            "plain,1\n"
            "\"with,comma\",2\n"
            "\"with\"\"quote\",3\n");
}

}  // namespace
}  // namespace hwstar::perf
