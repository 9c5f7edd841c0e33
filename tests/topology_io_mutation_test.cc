#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "topology/fat_tree.h"
#include "topology/io.h"

// Mutations of a well-formed topology file: truncations, bit flips and
// inflated numbers. Each one must be rejected with a reason, or parse
// into a topology that writes back out and reads in to the same bytes.
// CI runs this suite under ASan+UBSan.
namespace corropt::topology {
namespace {

std::string fat_tree_text() {
  std::ostringstream out;
  write_topology(out, build_fat_tree(4));
  return out.str();
}

// Returns whether `text` was accepted.
bool expect_rejected_or_round_trips(const std::string& text) {
  std::istringstream in(text);
  std::string error;
  const auto parsed = read_topology(in, &error);
  if (!parsed.has_value()) {
    EXPECT_FALSE(error.empty()) << text;
    return false;
  }
  std::ostringstream first;
  write_topology(first, *parsed);
  std::istringstream again(first.str());
  std::string again_error;
  const auto reparsed = read_topology(again, &again_error);
  EXPECT_TRUE(reparsed.has_value()) << again_error << "\n" << text;
  if (reparsed.has_value()) {
    std::ostringstream second;
    write_topology(second, *reparsed);
    EXPECT_EQ(first.str(), second.str()) << text;
  }
  return true;
}

TEST(TopologyIoMutation, EveryTruncationRejectedOrRoundTrips) {
  const std::string text = fat_tree_text();
  std::size_t accepted = 0;
  for (std::size_t size = 0; size <= text.size(); ++size) {
    SCOPED_TRACE(size);
    accepted += expect_rejected_or_round_trips(text.substr(0, size)) ? 1 : 0;
  }
  // Cuts at line ends (and inside switch names) parse; the rest do not.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, text.size());
}

TEST(TopologyIoMutation, BitFlipsRejectedOrRoundTrip) {
  const std::string text = fat_tree_text();
  common::Rng rng(2017);
  std::size_t accepted = 0;
  constexpr int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    std::string flipped = text;
    const std::size_t byte = rng.uniform_index(flipped.size());
    flipped[byte] = static_cast<char>(flipped[byte] ^
                                      (1 << rng.uniform_index(8)));
    SCOPED_TRACE(round);
    accepted += expect_rejected_or_round_trips(flipped) ? 1 : 0;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::size_t>(kRounds));
}

TEST(TopologyIoMutation, InflatedNumbersRejectedOrRoundTrip) {
  const std::string text = fat_tree_text();
  std::size_t numbers = 0;
  for (std::size_t at = 0; at < text.size();) {
    // Each maximal digit run, with the minus sign in front of it.
    if (std::isdigit(static_cast<unsigned char>(text[at])) == 0) {
      ++at;
      continue;
    }
    std::size_t end = at;
    while (end < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[end])) != 0) {
      ++end;
    }
    const std::size_t begin = at > 0 && text[at - 1] == '-' ? at - 1 : at;
    const std::string number = text.substr(begin, end - begin);
    std::vector<std::string> variants = {"12345678901234567890",
                                         "-12345678901234567890",
                                         "+" + number, "-" + number};
    if (number == "-1") variants.push_back("-2");
    for (const std::string& variant : variants) {
      std::string inflated = text;
      inflated.replace(begin, end - begin, variant);
      SCOPED_TRACE(inflated.substr(begin, 40));
      expect_rejected_or_round_trips(inflated);
    }
    ++numbers;
    at = end;
  }
  // Every switch row holds at least three numbers, every link row five.
  EXPECT_GE(numbers, 20u * 3 + 32u * 5);
}

}  // namespace
}  // namespace corropt::topology
