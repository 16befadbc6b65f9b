// The BG/P grammar and partition ladder, as declared by machine::bgp_model().
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "coral/common/error.hpp"
#include "coral/machine/model.hpp"

namespace coral::bgp {
namespace {

const machine::MachineModel& bgp() { return machine::bgp_model(); }

Location parse(std::string_view text) { return bgp().parse_location(text); }

/// The midplanes a location touches, by the BG/P codec.
machine::MidplaneRange touched(const Location& loc) {
  return bgp().codec().midplanes(loc.packed());
}

TEST(Location, ParseRack) {
  const Location loc = parse("R04");
  EXPECT_EQ(loc.kind(), LocationKind::Rack);
  EXPECT_EQ(loc.rack_index(), 4);
  EXPECT_EQ(touched(loc).size(), 2);
  EXPECT_EQ(loc.to_string(), "R04");
}

TEST(Location, ParseMidplane) {
  const Location loc = parse("R04-M1");
  EXPECT_EQ(loc.kind(), LocationKind::Midplane);
  EXPECT_EQ(touched(loc).first, 9);
  EXPECT_EQ(touched(loc).size(), 1);
  EXPECT_EQ(loc.to_string(), "R04-M1");
}

TEST(Location, ParseCards) {
  EXPECT_EQ(parse("R00-M0-N08").kind(), LocationKind::NodeCard);
  EXPECT_EQ(parse("R00-M0-N08-J12").kind(), LocationKind::ComputeCard);
  EXPECT_EQ(parse("R00-M0-S").kind(), LocationKind::ServiceCard);
  EXPECT_EQ(parse("R00-M0-L3").kind(), LocationKind::LinkCard);
  EXPECT_EQ(parse("R00-M0-N08-I01").kind(), LocationKind::IoNode);
}

TEST(Location, RoundTripAllKinds) {
  for (const char* s : {"R39", "R39-M1", "R12-M0-N15", "R12-M0-N15-J35", "R12-M1-S",
                        "R12-M1-L0", "R12-M0-N00-I00"}) {
    EXPECT_EQ(parse(s).to_string(), s) << s;
  }
}

TEST(Location, ParseRejectsInvalid) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("R40"), ParseError);
  EXPECT_THROW(parse("R04-M2"), ParseError);
  EXPECT_THROW(parse("R04-M0-N16"), ParseError);
  EXPECT_THROW(parse("R04-M0-N00-J03"), ParseError);
  EXPECT_THROW(parse("R04-M0-N00-J36"), ParseError);
  EXPECT_THROW(parse("R04-M0-L4"), ParseError);
  EXPECT_THROW(parse("R04-S"), ParseError);
  EXPECT_THROW(parse("X04"), ParseError);
  EXPECT_THROW(parse("R04-M0-N00-J12-X"), ParseError);
  EXPECT_THROW(parse("R0a"), ParseError);
}

TEST(Location, Containment) {
  const Location rack = parse("R04");
  const Location mid = parse("R04-M0");
  const Location card = parse("R04-M0-N08");
  const Location cc = parse("R04-M0-N08-J12");
  EXPECT_TRUE(cc.is_within(card));
  EXPECT_TRUE(cc.is_within(mid));
  EXPECT_TRUE(cc.is_within(rack));
  EXPECT_TRUE(mid.is_within(rack));
  EXPECT_FALSE(mid.is_within(cc));
  EXPECT_FALSE(parse("R04-M1").is_within(mid));
  EXPECT_FALSE(parse("R05-M0").is_within(rack));
  EXPECT_TRUE(mid.is_within(mid));
}

TEST(Location, TouchesMidplane) {
  EXPECT_TRUE(touched(parse("R04")).contains(8));
  EXPECT_TRUE(touched(parse("R04")).contains(9));
  EXPECT_FALSE(touched(parse("R04")).contains(10));
  EXPECT_TRUE(touched(parse("R04-M1-N03-J11")).contains(9));
  EXPECT_FALSE(touched(parse("R04-M1-N03-J11")).contains(8));
}

TEST(Location, ParseStringViewSubrangeOfCsvRow) {
  // The ingest paths hand parse() an unterminated slice of a CSV line; it
  // must behave exactly like the owned-string overload.
  const std::string row = "R12-M0-N15-J35,FATAL,rest-of-row";
  const std::string_view field = std::string_view(row).substr(0, 14);
  EXPECT_EQ(parse(field).to_string(), "R12-M0-N15-J35");
  EXPECT_EQ(parse(field).packed(), parse(std::string(field)).packed());
}

TEST(Location, ParseStringViewRejectsInvalid) {
  EXPECT_THROW(parse(std::string_view{}), ParseError);
  EXPECT_THROW(parse(std::string_view("R04-M2")), ParseError);
  const std::string row = "R04-M0-N00-J03|";
  EXPECT_THROW(parse(std::string_view(row).substr(0, 14)), ParseError);
}

/// A partition the test knows to be legal on BG/P.
Partition legal(MidplaneId first, int count) {
  EXPECT_TRUE(bgp().is_legal_partition(first, count)) << first << "+" << count;
  return Partition::unchecked(first, count);
}

TEST(Partition, ParseStringViewSubrangeOfCsvRow) {
  const std::string row = "R08-R11,1234,exe";
  const Partition p = bgp().parse_partition(std::string_view(row).substr(0, 7));
  EXPECT_EQ(p, bgp().parse_partition("R08-R11"));
  EXPECT_THROW(bgp().parse_partition(std::string_view("R11-R10")), ParseError);
  EXPECT_THROW(bgp().parse_partition(std::string_view{}), ParseError);
}

TEST(Partition, LegalSizesMatchTableVI) {
  EXPECT_EQ(bgp().legal_partition_sizes(), (std::vector<int>{1, 2, 4, 8, 16, 32, 48, 64, 80}));
}

TEST(Partition, NamesRoundTrip) {
  EXPECT_EQ(bgp().partition_name(legal(9, 1)), "R04-M1");
  EXPECT_EQ(bgp().partition_name(legal(8, 2)), "R04");
  EXPECT_EQ(bgp().partition_name(legal(16, 4)), "R08-R09");
  EXPECT_EQ(bgp().partition_name(legal(0, 80)), "R00-R39");
  for (int size : bgp().legal_partition_sizes()) {
    for (const Partition& p : bgp().partitions_of_size(size)) {
      EXPECT_EQ(bgp().parse_partition(bgp().partition_name(p)), p) << bgp().partition_name(p);
    }
  }
}

TEST(Partition, ParseJobLogStyle) {
  const Partition p = bgp().parse_partition("R10-R11");
  EXPECT_EQ(p.first_midplane(), 20);
  EXPECT_EQ(p.midplane_count(), 4);
}

TEST(Partition, RejectsIllegal) {
  EXPECT_FALSE(bgp().is_legal_partition(1, 2));    // not rack-aligned
  EXPECT_FALSE(bgp().is_legal_partition(2, 3));    // odd size >1
  EXPECT_FALSE(bgp().is_legal_partition(0, 6));    // 3 racks is not legal
  EXPECT_FALSE(bgp().is_legal_partition(2, 4));    // 2-rack not 2-rack aligned
  EXPECT_FALSE(bgp().is_legal_partition(79, 2));   // straddles machine end
  EXPECT_FALSE(bgp().is_legal_partition(16, 80));  // beyond machine
  EXPECT_THROW(bgp().parse_partition("R11-R10"), ParseError);
  EXPECT_THROW(bgp().parse_partition("R00-M0-N04"), ParseError);
}

TEST(Partition, CountsOfEachSize) {
  EXPECT_EQ(bgp().partitions_of_size(1).size(), 80u);
  EXPECT_EQ(bgp().partitions_of_size(2).size(), 40u);
  EXPECT_EQ(bgp().partitions_of_size(4).size(), 20u);
  EXPECT_EQ(bgp().partitions_of_size(8).size(), 10u);
  EXPECT_EQ(bgp().partitions_of_size(16).size(), 5u);
  EXPECT_EQ(bgp().partitions_of_size(32).size(), 2u);  // 16 racks at rack 0,16 (32 doesn't fit)
  EXPECT_EQ(bgp().partitions_of_size(48).size(), 3u);  // 24 racks at rack 0,8,16
  EXPECT_EQ(bgp().partitions_of_size(64).size(), 2u);  // 32 racks at rack 0,8
  EXPECT_EQ(bgp().partitions_of_size(80).size(), 1u);
}

TEST(Partition, OverlapAndCoverage) {
  const Partition a = legal(0, 4);   // R00-R01
  const Partition b = legal(4, 4);   // R02-R03
  const Partition c = legal(0, 16);  // R00-R07
  const machine::LocCodec& codec = bgp().codec();
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_TRUE(b.overlaps(c));
  EXPECT_TRUE(a.covers_key(parse("R01-M1-N00").packed(), codec));
  EXPECT_FALSE(a.covers_key(parse("R02-M0").packed(), codec));
  EXPECT_TRUE(c.covers_key(parse("R07").packed(), codec));
}

class PartitionSizeP : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSizeP, PartitionsTileWithoutOverlapWhenAligned) {
  const auto parts = bgp().partitions_of_size(GetParam());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = i + 1; j < parts.size(); ++j) {
      if (GetParam() <= 16) {
        EXPECT_FALSE(parts[i].overlaps(parts[j]));
      }
    }
    EXPECT_EQ(parts[i].midplanes().size(), static_cast<std::size_t>(GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, PartitionSizeP,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 48, 64, 80));

}  // namespace
}  // namespace coral::bgp
