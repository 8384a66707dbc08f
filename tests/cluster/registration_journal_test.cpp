// Registration_journal: record/replace/replay semantics, persistence
// round trips through the sealed-JSONL file format, bounded compaction,
// and the paranoid load path — a record whose checksum, shape, or
// embedded register line fails verification is refused, never replayed
// (replaying a mis-keyed registration would route repairs to the wrong
// shard). The load path is fuzzed the way tests/store/snapshot_test.cpp
// fuzzes snapshots, with a checked-in refusal corpus.

#include "quest/cluster/registration_journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "quest/io/fingerprint.hpp"
#include "quest/io/instance_io.hpp"
#include "quest/common/rng.hpp"
#include "quest/io/json.hpp"
#include "support/helpers.hpp"

namespace quest {
namespace {

using cluster::Journal_options;
using cluster::Registration_journal;

struct Temp_path {
  std::string path;
  explicit Temp_path(const std::string& name)
      : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
  }
  ~Temp_path() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
};

/// A real register line (the journal's load path re-parses and
/// re-fingerprints it, so a hand-faked line would be refused).
struct Registration {
  std::uint64_t fingerprint;
  std::string name;
  std::string line;
};

Registration make_registration(const std::string& name, std::uint64_t seed) {
  const model::Instance instance = test::selective_instance(5, seed);
  Registration out;
  out.fingerprint = io::fingerprint(instance);
  out.name = name;
  out.line = "{\"op\":\"register\",\"name\":\"" + name +
             "\",\"instance\":" + io::to_json(instance).dump() + "}";
  return out;
}

TEST(Registration_journal_test, RecordsReplaceAndReplayInOrder) {
  Registration_journal journal(Journal_options{});  // in-memory
  const auto a = make_registration("a", 1);
  const auto b = make_registration("b", 2);
  journal.record(a.fingerprint, a.name, a.line);
  journal.record(b.fingerprint, b.name, b.line);
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.line_for(a.fingerprint), a.line);
  EXPECT_EQ(journal.line_for(b.fingerprint), b.line);
  EXPECT_EQ(journal.line_for(0xdeadbeef), "");

  // Re-recording the same fingerprint replaces, it does not grow.
  journal.record(a.fingerprint, "a-renamed", a.line);
  EXPECT_EQ(journal.size(), 2u);

  const auto entries = journal.entries();
  ASSERT_EQ(entries.size(), 2u);
  // Replay order is insertion order (oldest first).
  EXPECT_EQ(entries[0].fingerprint, a.fingerprint);
  EXPECT_EQ(entries[0].name, "a-renamed");
  EXPECT_EQ(entries[1].fingerprint, b.fingerprint);
}

TEST(Registration_journal_test, PersistsAcrossReopen) {
  Temp_path temp("quest_journal_roundtrip");
  const auto a = make_registration("a", 3);
  const auto b = make_registration("b", 4);
  {
    Registration_journal journal(Journal_options{temp.path, 64});
    journal.record(a.fingerprint, a.name, a.line);
    journal.record(b.fingerprint, b.name, b.line);
    EXPECT_EQ(journal.io_failures(), 0u);
  }
  Registration_journal reopened(Journal_options{temp.path, 64});
  EXPECT_TRUE(reopened.load_report().file_found);
  EXPECT_TRUE(reopened.load_report().header_ok);
  EXPECT_EQ(reopened.load_report().entries_loaded, 2u);
  EXPECT_EQ(reopened.load_report().stale_refused, 0u);
  EXPECT_EQ(reopened.line_for(a.fingerprint), a.line);
  EXPECT_EQ(reopened.line_for(b.fingerprint), b.line);
}

TEST(Registration_journal_test, CompactsPastTheBound) {
  Temp_path temp("quest_journal_compact");
  const auto a = make_registration("a", 5);
  Registration_journal journal(Journal_options{temp.path, 4});
  // 12 re-registrations of one fingerprint: the file would accumulate 12
  // appended records, but the bound forces compaction down to the single
  // live one.
  for (int i = 0; i < 12; ++i) {
    journal.record(a.fingerprint, a.name, a.line);
  }
  EXPECT_EQ(journal.size(), 1u);

  std::ifstream in(temp.path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  // Header plus at most max_records data lines survive on disk.
  EXPECT_LE(lines.size(), 1u + 4u);
  EXPECT_GE(lines.size(), 2u);
}

TEST(Registration_journal_test, LiveSetIsBounded) {
  Registration_journal journal(Journal_options{"", 2});
  const auto a = make_registration("a", 6);
  const auto b = make_registration("b", 7);
  const auto c = make_registration("c", 8);
  journal.record(a.fingerprint, a.name, a.line);
  journal.record(b.fingerprint, b.name, b.line);
  journal.record(c.fingerprint, c.name, c.line);
  // Oldest entry evicted: the journal is a bounded repair buffer.
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.line_for(a.fingerprint), "");
  EXPECT_EQ(journal.line_for(c.fingerprint), c.line);
}

TEST(Registration_journal_test, CorruptRecordsAreRefusedNotReplayed) {
  Temp_path temp("quest_journal_corrupt");
  const auto a = make_registration("a", 9);
  const auto b = make_registration("b", 10);
  {
    Registration_journal journal(Journal_options{temp.path, 64});
    journal.record(a.fingerprint, a.name, a.line);
    journal.record(b.fingerprint, b.name, b.line);
  }
  // Flip a byte inside the second record's payload.
  std::ifstream in(temp.path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const auto pos = contents.rfind("\"name\":\"b\"");
  ASSERT_NE(pos, std::string::npos);
  contents[pos + 8] = 'x';
  std::ofstream out(temp.path, std::ios::trunc);
  out << contents;
  out.close();

  Registration_journal reopened(Journal_options{temp.path, 64});
  EXPECT_TRUE(reopened.load_report().header_ok);
  EXPECT_EQ(reopened.load_report().entries_loaded, 1u);
  EXPECT_EQ(reopened.load_report().stale_refused, 1u);
  EXPECT_EQ(reopened.line_for(a.fingerprint), a.line);
  EXPECT_EQ(reopened.line_for(b.fingerprint), "");
}

TEST(Registration_journal_test, MismatchedFingerprintIsRefused) {
  Temp_path temp("quest_journal_miskey");
  const auto a = make_registration("a", 11);
  {
    // Record under a *wrong* fingerprint: the line itself is valid and
    // checksums fine, but on load it re-fingerprints to a different
    // value — exactly the mis-keyed case replay must refuse.
    Registration_journal journal(Journal_options{temp.path, 64});
    journal.record(a.fingerprint ^ 1, a.name, a.line);
  }
  Registration_journal reopened(Journal_options{temp.path, 64});
  EXPECT_EQ(reopened.load_report().entries_loaded, 0u);
  EXPECT_EQ(reopened.load_report().stale_refused, 1u);
}

TEST(Registration_journal_test, BadHeaderRefusesTheWholeFile) {
  Temp_path temp("quest_journal_header");
  {
    std::ofstream out(temp.path);
    out << "{\"not_a_journal\":true}\n";
  }
  Registration_journal journal(Journal_options{temp.path, 64});
  EXPECT_TRUE(journal.load_report().file_found);
  EXPECT_FALSE(journal.load_report().header_ok);
  EXPECT_EQ(journal.size(), 0u);

  // Recording into the refused file starts it over with a valid header.
  const auto a = make_registration("a", 12);
  journal.record(a.fingerprint, a.name, a.line);
  Registration_journal reopened(Journal_options{temp.path, 64});
  EXPECT_TRUE(reopened.load_report().header_ok);
  EXPECT_EQ(reopened.load_report().entries_loaded, 1u);
}

TEST(Registration_journal_test, MissingFileIsACleanColdStart) {
  Temp_path temp("quest_journal_cold");
  Registration_journal journal(Journal_options{temp.path, 64});
  EXPECT_FALSE(journal.load_report().file_found);
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.io_failures(), 0u);
}

// ---------------------------------------------------------------------
// Byte-mutation fuzzing of the load path. The contract under corruption:
// loading never throws or crashes, and no altered content is ever
// replayed — every loaded entry is byte for byte one that was recorded.
// A single bit flip must moreover be visible (header refused or a record
// counted as refused) or leave the load exactly the pristine one.

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

struct Journal_fixture {
  Temp_path temp{"quest_journal_fuzz"};
  std::vector<Registration> recorded{make_registration("a", 21),
                                     make_registration("b", 22),
                                     make_registration("c", 23)};
  std::string pristine;

  Journal_fixture() {
    {
      Registration_journal journal(Journal_options{temp.path, 64});
      for (const auto& r : recorded) journal.record(r.fingerprint, r.name, r.line);
    }
    pristine = read_all(temp.path);
  }

  /// Loads `bytes` as the journal file and enforces the contract; true
  /// when the load was visibly refused in part or whole.
  bool load(const std::string& bytes, const std::string& what) {
    {
      std::ofstream file(temp.path, std::ios::binary | std::ios::trunc);
      file << bytes;
    }
    std::optional<Registration_journal> journal;
    EXPECT_NO_THROW(journal.emplace(Journal_options{temp.path, 64})) << what;
    if (!journal) return true;
    for (const auto& entry : journal->entries()) {
      bool known = false;
      for (const auto& r : recorded) {
        known = known || (entry.fingerprint == r.fingerprint &&
                          entry.name == r.name && entry.line == r.line);
      }
      EXPECT_TRUE(known) << what << ": replayable entry '" << entry.name
                         << "' was never recorded (silent acceptance)";
    }
    const auto& report = journal->load_report();
    return !report.header_ok || report.stale_refused > 0;
  }
};

TEST(Registration_journal_fuzz, EverySingleBitFlipIsRefusedOrHarmless) {
  Journal_fixture fixture;
  ASSERT_FALSE(fixture.pristine.empty());
  for (std::size_t at = 0; at < fixture.pristine.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = fixture.pristine;
      mutated[at] = static_cast<char>(
          static_cast<unsigned char>(mutated[at]) ^ (1u << bit));
      const std::string what = "flip of bit " + std::to_string(bit) +
                               " at byte " + std::to_string(at);
      if (!fixture.load(mutated, what)) {
        Registration_journal journal(Journal_options{fixture.temp.path, 64});
        EXPECT_EQ(journal.size(), fixture.recorded.size()) << what;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(Registration_journal_fuzz, TruncationsAndStructuralMutationsNeverReplayAlteredContent) {
  Journal_fixture fixture;
  for (std::size_t cut = 0; cut < fixture.pristine.size(); ++cut) {
    fixture.load(fixture.pristine.substr(0, cut),
                 "truncated to " + std::to_string(cut) + " bytes");
    if (::testing::Test::HasFailure()) return;
  }
  // Deterministic seed so CI replays bit-for-bit; reseed to explore.
  Rng rng(0x70a2a1);
  for (int round = 0; round < 400; ++round) {
    std::string mutated = fixture.pristine;
    const std::size_t from = rng.uniform_int(mutated.size());
    const std::size_t len = rng.uniform_int(mutated.size() - from) + 1;
    switch (rng.uniform_int(std::uint64_t{4})) {
      case 0:  // overwrite a byte with an arbitrary value
        mutated[from] = static_cast<char>(rng.uniform_int(std::uint64_t{256}));
        break;
      case 1:  // duplicate a byte range
        mutated.insert(from, mutated.substr(from, len));
        break;
      case 2:  // delete a byte range
        mutated.erase(from, len);
        break;
      default:  // splice the file onto itself at a random cut
        mutated = mutated.substr(from) + mutated.substr(0, len);
        break;
    }
    fixture.load(mutated, "structural round " + std::to_string(round));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(Registration_journal_fuzz, CheckedInCorpusIsRefusedWithoutCrashing) {
  // Journals that once looked plausible: each must load without throwing
  // and without a single replayable entry.
  const std::filesystem::path corpus(QUEST_JOURNAL_CORPUS);
  ASSERT_TRUE(std::filesystem::is_directory(corpus));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    std::optional<Registration_journal> journal;
    ASSERT_NO_THROW(
        journal.emplace(Journal_options{entry.path().string(), 64}))
        << entry.path();
    EXPECT_TRUE(journal->load_report().file_found) << entry.path();
    EXPECT_EQ(journal->load_report().entries_loaded, 0u) << entry.path();
    EXPECT_EQ(journal->size(), 0u) << entry.path();
  }
  EXPECT_GE(files, 8u) << "journal fuzz corpus went missing";
}

}  // namespace
}  // namespace quest
