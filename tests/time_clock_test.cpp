#include <gtest/gtest.h>

#include "net/time.h"

namespace curtain::net {
namespace {

TEST(SimTime, ConversionsRoundTrip) {
  EXPECT_EQ(SimTime::from_millis(1.5).micros, 1500);
  EXPECT_DOUBLE_EQ(SimTime::from_seconds(2.0).millis(), 2000.0);
  EXPECT_DOUBLE_EQ(SimTime::from_hours(1.0).seconds(), 3600.0);
  EXPECT_DOUBLE_EQ(SimTime::from_days(2.0).hours(), 48.0);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::from_seconds(3.0);
  const SimTime b = SimTime::from_seconds(1.0);
  EXPECT_EQ((a + b).seconds(), 4.0);
  EXPECT_EQ((a - b).seconds(), 2.0);
  SimTime c = a;
  c += b;
  EXPECT_EQ(c.seconds(), 4.0);
}

TEST(SimTime, Comparisons) {
  EXPECT_LT(SimTime::from_seconds(1), SimTime::from_seconds(2));
  EXPECT_EQ(SimTime::zero(), SimTime{0});
}

TEST(Calendar, DayLabels) {
  EXPECT_EQ(CampaignCalendar::day_label(SimTime::zero()), "Mar-1");
  EXPECT_EQ(CampaignCalendar::day_label(SimTime::from_days(30)), "Mar-31");
  EXPECT_EQ(CampaignCalendar::day_label(SimTime::from_days(31)), "Apr-1");
  EXPECT_EQ(CampaignCalendar::day_label(SimTime::from_days(153)), "Aug-1");
}

TEST(Calendar, NegativeClampsToEpoch) {
  EXPECT_EQ(CampaignCalendar::day_label(SimTime{-5}), "Mar-1");
}

}  // namespace
}  // namespace curtain::net
