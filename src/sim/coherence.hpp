// Directory coherence state (paper §II.A: the CHAs form a distributed tag
// directory keeping the per-tile L2s coherent — with MESIF on KNL, or with
// the MESI/MOSI variants selected through sim/protocol.hpp).
//
// State is tracked at tile granularity, matching the paper's benchmarks: the
// unit of coherence is an L2 line in some tile, plus L1 presence bits per
// core. The classic states map onto this record as:
//   M/E — `owner` tile set, `dirty` distinguishes M from E
//   O   — `owner` set and dirty with other sharers in `l2_mask` (MOSI only)
//   S   — no owner; one or more tiles in `l2_mask`
//   F   — the designated forwarder among the sharers (`forward`, MESIF only)
//   I   — no record / empty masks
// Transitions are performed by the memory system; this module owns storage,
// queries and invariant checking. Which shapes are legal depends on the
// protocol's ProtocolRules table; the rules-free overloads check the
// default MESIF table.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "sim/address.hpp"
#include "sim/line_table.hpp"
#include "sim/mem_map.hpp"
#include "sim/protocol.hpp"
#include "sim/state.hpp"

namespace capmem::sim {

/// Observable state of a line within one tile's L2 (the states the paper's
/// cache-to-cache benchmarks prepare and measure, plus MOSI's O).
enum class TileState { kI, kS, kE, kM, kF, kO };

// The sharer/presence bitmaps below are single 64-bit words; every machine
// shape is capped at kMaxCoherenceTiles tiles (and 64 cores) and
// MachineConfig::validate enforces it before a Topology is ever built.
static_assert(sizeof(std::uint64_t) * 8 == kMaxCoherenceTiles,
              "LineEntry::l2_mask/l1_mask width must match the configured "
              "coherence-tile limit");

const char* to_string(TileState s);

struct LineEntry {
  std::uint64_t l2_mask = 0;  ///< tiles with the line in L2
  std::uint64_t l1_mask = 0;  ///< cores with the line in L1
  int owner = -1;             ///< tile in M/E, -1 otherwise
  bool dirty = false;         ///< owner copy modified (M) vs clean (E)
  int forward = -1;           ///< forwarder tile when shared, -1 none

  /// CHA serialization point: requests to this line queue here, producing
  /// the paper's linear contention law.
  Nanos service_available = 0;
  /// Time at which the latest store to the line becomes visible (used to
  /// wake spin-waiters with the correct timestamp).
  Nanos last_write_visible = 0;
  /// Bumped on every store; spin-waiting is "wait until version changes".
  std::uint64_t version = 0;

  /// Memoized physical target. The address map is a pure function of
  /// (line, placement), and virtual addresses are never reused within a
  /// machine, so a line's target is fixed for the whole run; resolving it
  /// once per line instead of once per access keeps the hash-and-route
  /// arithmetic off the hot path.
  MemTarget target;
  bool target_valid = false;

  bool present_in_tile(int tile) const {
    return (l2_mask >> tile) & 1ull;
  }
  bool anywhere() const { return l2_mask != 0; }
};

/// Line -> LineEntry store. Entries live in pages of kPageLines consecutive
/// lines (a presence bitmask plus the entries), and the pages are keyed by
/// `line / kPageLines` in a LineTable with a one-page memo. A stream's
/// consecutive lines thus share one block of host memory, and the L1/L2
/// victims and flushed lines a stream produces, a few pages behind its
/// cursor, are still warm in the host cache.
class Directory {
 public:
  /// Lines per page: one 64-bit presence word.
  static constexpr int kPageLines = 64;

  /// Entry for `line`, creating an Invalid one if absent. The reference is
  /// stable until this line is dropped (its page outlives every line in it).
  LineEntry& entry(Line line) {
    Page& p = page_for(line / kPageLines);
    const std::uint64_t bit = 1ull << (line % kPageLines);
    LineEntry& e = p.lines[line % kPageLines];
    if ((p.present & bit) == 0) {
      p.present |= bit;
      e = LineEntry{};
      ++size_;
    }
    return e;
  }
  /// Entry if tracked, nullptr otherwise.
  const LineEntry* find(Line line) const {
    return const_cast<Directory*>(this)->find(line);
  }
  LineEntry* find(Line line) {
    Page* p = find_page(line / kPageLines);
    if (p == nullptr || ((p->present >> (line % kPageLines)) & 1ull) == 0)
      return nullptr;
    return &p->lines[line % kPageLines];
  }
  /// Drops an entry that went globally Invalid (keeps the map compact); a
  /// page is freed with its last line.
  void drop_if_invalid(Line line);

  /// State of `line` as seen by `tile`'s L2.
  TileState state_in_tile(Line line, int tile) const;
  /// Same given an already looked-up entry.
  static TileState state_in_tile(const LineEntry& e, int tile);

  /// Legal-state table the instance checks against (defaults to MESIF).
  /// MemSystem sets it from MachineConfig::protocol at construction.
  void set_rules(const ProtocolRules& rules) { rules_ = &rules; }
  const ProtocolRules& rules() const { return *rules_; }

  /// Protocol invariants; cheap enough to run after every transition.
  /// Throws CheckError on violation. The rules-free overloads check this
  /// instance's table (static check_entry: the MESIF default).
  void check_invariants(Line line) const;
  static void check_entry(const LineEntry& e);
  static void check_entry(const LineEntry& e, const ProtocolRules& rules);
  /// Sweeps every tracked line (test helper).
  void check_all() const {
    const ProtocolRules& r = *rules_;
    for_each([&r](Line, const LineEntry& e) { check_entry(e, r); });
  }

  /// Visits every tracked (line, entry) exactly once; order unspecified.
  /// Used by the capmem::check global sweeps to cross-check the directory
  /// against the actual cache residency.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    pages_.for_each([&fn](std::uint64_t key, const Page& p) {
      for (std::uint64_t rest = p.present; rest != 0; rest &= rest - 1) {
        const int i = __builtin_ctzll(rest);
        fn(key * kPageLines + static_cast<Line>(i), p.lines[i]);
      }
    });
  }

  std::size_t tracked_lines() const { return size_; }
  /// Pages currently allocated (each holds at least one tracked line).
  std::size_t pages() const { return pages_.size(); }

  void clear() {
    pages_.clear();
    memo_ = nullptr;
    size_ = 0;
  }

  /// Checkpoint support (capmem::snap). Entries export sorted by line (the
  /// page table's iteration order is unspecified); the memoized physical
  /// target is derived data and recomputed lazily after import.
  std::vector<state::DirEntryState> export_state() const;
  void import_state(const std::vector<state::DirEntryState>& entries);

 private:
  struct Page {
    std::uint64_t present = 0;  ///< bit i: lines[i] is tracked
    LineEntry lines[kPageLines];
  };

  Page* find_page(std::uint64_t key) {
    if (memo_ != nullptr && key == memo_key_) return memo_;
    Page* p = pages_.find(key);
    if (p != nullptr) {
      memo_key_ = key;
      memo_ = p;
    }
    return p;
  }
  Page& page_for(std::uint64_t key) {
    if (memo_ != nullptr && key == memo_key_) return *memo_;
    memo_key_ = key;
    memo_ = &pages_.get_or_create(key);
    return *memo_;
  }

  // Pool references are stable (deque-backed), so the memo survives
  // unrelated page inserts; it is dropped when its page is freed.
  LineTable<Page> pages_;
  std::uint64_t memo_key_ = 0;
  Page* memo_ = nullptr;
  std::size_t size_ = 0;
  const ProtocolRules* rules_ = &rules_of(Protocol::kMesif);
};

}  // namespace capmem::sim
