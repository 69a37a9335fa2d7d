#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "sim/coherence.hpp"

namespace capmem::sim {
namespace {

TEST(Directory, UntrackedLineIsInvalid) {
  Directory d;
  EXPECT_EQ(d.find(5), nullptr);
  EXPECT_EQ(d.state_in_tile(5, 0), TileState::kI);
}

TEST(Directory, OwnerStates) {
  Directory d;
  LineEntry& e = d.entry(1);
  e.owner = 3;
  e.l2_mask = 1ull << 3;
  e.dirty = false;
  EXPECT_EQ(d.state_in_tile(1, 3), TileState::kE);
  e.dirty = true;
  EXPECT_EQ(d.state_in_tile(1, 3), TileState::kM);
  EXPECT_EQ(d.state_in_tile(1, 4), TileState::kI);
  d.check_invariants(1);
}

TEST(Directory, SharedAndForwardStates) {
  Directory d;
  LineEntry& e = d.entry(2);
  e.l2_mask = (1ull << 1) | (1ull << 5);
  e.forward = 5;
  EXPECT_EQ(d.state_in_tile(2, 1), TileState::kS);
  EXPECT_EQ(d.state_in_tile(2, 5), TileState::kF);
  d.check_invariants(2);
}

TEST(Directory, InvariantOwnerNeedsSingleCopy) {
  Directory d;
  LineEntry& e = d.entry(3);
  e.owner = 1;
  e.l2_mask = (1ull << 1) | (1ull << 2);
  EXPECT_THROW(d.check_invariants(3), CheckError);
}

TEST(Directory, InvariantOwnerMustBePresent) {
  Directory d;
  LineEntry& e = d.entry(4);
  e.owner = 1;
  e.l2_mask = 1ull << 2;
  EXPECT_THROW(d.check_invariants(4), CheckError);
}

TEST(Directory, InvariantDirtyRequiresOwner) {
  Directory d;
  LineEntry& e = d.entry(5);
  e.l2_mask = 1ull << 2;
  e.dirty = true;
  EXPECT_THROW(d.check_invariants(5), CheckError);
}

TEST(Directory, InvariantForwarderMustBeSharer) {
  Directory d;
  LineEntry& e = d.entry(6);
  e.l2_mask = 1ull << 2;
  e.forward = 3;
  EXPECT_THROW(d.check_invariants(6), CheckError);
}

TEST(Directory, DropIfInvalidCompacts) {
  Directory d;
  d.entry(7);
  EXPECT_EQ(d.tracked_lines(), 1u);
  d.drop_if_invalid(7);
  EXPECT_EQ(d.tracked_lines(), 0u);
  LineEntry& e = d.entry(8);
  e.l2_mask = 1;
  e.owner = 0;
  d.drop_if_invalid(8);
  EXPECT_EQ(d.tracked_lines(), 1u);
}

// ----------------------------------------------------------- paged store

constexpr Line kPage = Directory::kPageLines;

TEST(DirectoryPages, ReferencesStableAcrossPageCreationAndFreeing) {
  Directory d;
  LineEntry& e = d.entry(5);
  e.l2_mask = 1;
  e.version = 42;
  // Grow the page table well past its initial capacity (rehashes and new
  // pool blocks), then free most of those pages again.
  for (Line l = kPage; l < 4000 * kPage; l += kPage / 2) d.entry(l);
  for (Line l = kPage; l < 4000 * kPage; l += kPage / 2) d.drop_if_invalid(l);
  EXPECT_EQ(d.pages(), 1u);
  EXPECT_EQ(&d.entry(5), &e);
  EXPECT_EQ(d.find(5), &e);
  EXPECT_EQ(e.version, 42u);
  // A neighbour in the same page, created and dropped, leaves it alone.
  d.entry(6).version = 7;
  d.drop_if_invalid(6);
  EXPECT_EQ(&d.entry(5), &e);
  EXPECT_EQ(e.l2_mask, 1u);
}

TEST(DirectoryPages, PageFreedWithItsLastLine) {
  Directory d;
  d.entry(0);
  d.entry(kPage - 1);
  EXPECT_EQ(d.pages(), 1u);
  d.entry(kPage).l2_mask = 2;  // next page, held by an L2 copy
  EXPECT_EQ(d.pages(), 2u);
  d.drop_if_invalid(0);
  EXPECT_EQ(d.pages(), 2u);
  d.drop_if_invalid(kPage - 1);
  EXPECT_EQ(d.pages(), 1u);
  EXPECT_EQ(d.find(0), nullptr);
  d.drop_if_invalid(kPage);  // still cached: kept
  EXPECT_EQ(d.pages(), 1u);
  d.find(kPage)->l2_mask = 0;
  d.drop_if_invalid(kPage);
  EXPECT_EQ(d.pages(), 0u);
  EXPECT_EQ(d.find(kPage), nullptr);
}

TEST(DirectoryPages, RecreatedLineStartsInvalid) {
  Directory d;
  LineEntry& e = d.entry(3);
  e.version = 9;
  e.service_available = 5.0;
  d.entry(4);  // keeps the page alive across the drop
  d.drop_if_invalid(3);
  const LineEntry& again = d.entry(3);
  EXPECT_EQ(again.version, 0u);
  EXPECT_EQ(again.service_available, 0.0);
  EXPECT_EQ(again.owner, -1);
  EXPECT_FALSE(again.target_valid);
}

TEST(DirectoryPages, TrackedLinesCountsLinesNotPages) {
  Directory d;
  for (Line l = 10; l < 10 + 3 * kPage; ++l) d.entry(l);
  d.entry(10);  // repeated creation is idempotent
  EXPECT_EQ(d.tracked_lines(), 3 * kPage);
  EXPECT_EQ(d.pages(), 4u);
  d.drop_if_invalid(9);  // untracked line of a live page
  d.drop_if_invalid(1ull << 50);  // no page at all
  EXPECT_EQ(d.tracked_lines(), 3 * kPage);
  for (Line l = 10; l < 10 + 3 * kPage; l += 2) d.drop_if_invalid(l);
  EXPECT_EQ(d.tracked_lines(), 3 * kPage / 2);
  d.clear();
  EXPECT_EQ(d.tracked_lines(), 0u);
  EXPECT_EQ(d.pages(), 0u);
  EXPECT_EQ(d.find(11), nullptr);
}

TEST(DirectoryPages, ForEachVisitsEveryLineOnce) {
  Directory d;
  std::vector<Line> lines = {0,          1,           kPage - 1,  kPage,
                             5 * kPage,  7 * kPage + 3, 1ull << 40,
                             (1ull << 40) + kPage - 1, ~0ull / kPage * kPage};
  for (Line l : lines) d.entry(l).version = l;
  std::map<Line, int> seen;
  d.for_each([&](Line l, const LineEntry& e) {
    ++seen[l];
    EXPECT_EQ(e.version, l);
  });
  ASSERT_EQ(seen.size(), lines.size());
  for (Line l : lines) EXPECT_EQ(seen[l], 1) << l;
}

bool same_entry(const state::DirEntryState& a, const state::DirEntryState& b) {
  return a.line == b.line && a.l2_mask == b.l2_mask &&
         a.l1_mask == b.l1_mask && a.owner == b.owner &&
         a.forward == b.forward && a.dirty == b.dirty &&
         a.service_available == b.service_available &&
         a.last_write_visible == b.last_write_visible &&
         a.version == b.version;
}

// Randomized create/mutate/drop/flush sequences against a std::map model:
// the export (sorted by line) must match the model after every batch, and
// an import round-trips it.
TEST(DirectoryPages, MatchesStdMapUnderRandomOps) {
  std::mt19937_64 rng(1234);
  Directory d;
  std::map<Line, state::DirEntryState> ref;
  // Two clusters of lines so pages are both shared and far apart.
  auto pick_line = [&rng]() -> Line {
    const Line off = rng() % (5 * kPage);
    return (rng() & 1) ? off : (1ull << 40) + off;
  };
  for (int batch = 0; batch < 40; ++batch) {
    for (int op = 0; op < 500; ++op) {
      const Line l = pick_line();
      switch (rng() % 4) {
        case 0:
        case 1: {  // access: create and mutate
          LineEntry& e = d.entry(l);
          state::DirEntryState& r = ref[l];
          r.line = l;
          e.l2_mask = r.l2_mask = (rng() % 3 == 0) ? 0 : rng();
          e.l1_mask = r.l1_mask = rng() & 0xff;
          e.version = ++r.version;
          e.service_available = r.service_available =
              static_cast<double>(rng() % 1000);
          e.last_write_visible = r.last_write_visible = r.service_available;
          break;
        }
        case 2: {  // eviction: drop if globally invalid
          d.drop_if_invalid(l);
          const auto it = ref.find(l);
          if (it != ref.end() && it->second.l2_mask == 0) ref.erase(it);
          break;
        }
        case 3: {  // flush: clear every copy, then drop
          if (LineEntry* e = d.find(l)) {
            e->l2_mask = 0;
            e->l1_mask = 0;
            d.drop_if_invalid(l);
          }
          ref.erase(l);
          break;
        }
      }
      const LineEntry* e = d.find(l);
      ASSERT_EQ(e != nullptr, ref.count(l) == 1) << "line " << l;
    }
    const std::vector<state::DirEntryState> got = d.export_state();
    ASSERT_EQ(got.size(), ref.size());
    ASSERT_EQ(d.tracked_lines(), ref.size());
    std::size_t i = 0;
    for (const auto& [line, r] : ref) {
      ASSERT_TRUE(same_entry(got[i], r)) << "batch " << batch << " line "
                                         << line;
      ++i;
    }
    Directory copy;
    copy.import_state(got);
    const std::vector<state::DirEntryState> again = copy.export_state();
    ASSERT_EQ(again.size(), got.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_TRUE(same_entry(again[k], got[k]));
    }
  }
}

TEST(TileStateNames, AllDistinct) {
  EXPECT_STREQ(to_string(TileState::kI), "I");
  EXPECT_STREQ(to_string(TileState::kM), "M");
  EXPECT_STREQ(to_string(TileState::kE), "E");
  EXPECT_STREQ(to_string(TileState::kS), "S");
  EXPECT_STREQ(to_string(TileState::kF), "F");
}

}  // namespace
}  // namespace capmem::sim
