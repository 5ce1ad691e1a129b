// Tests for the serving durability layer (src/dmt/serve/state_dir):
// manifest round trips, newest-complete selection, pruning, and the
// corruption contract -- a truncated, bit-flipped, version-skewed or
// foreign file always surfaces as a typed StateError, never UB, abort or
// a silently wrong recovery -- plus the manifest bytes, `stats` text and full
// response transcript of one engine session, pinned against goldens.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dmt/linear/glm_classifier.h"
#include "dmt/robust/faulty_stream.h"
#include "dmt/serve/engine.h"
#include "dmt/serve/state_dir.h"
#include "golden_file.h"

namespace dmt {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

serve::Manifest MakeManifest(std::uint64_t seq) {
  serve::Manifest m;
  m.seq = seq;
  m.model_kind = "GLM";
  m.num_features = 3;
  m.num_classes = 2;
  m.seed = 42;
  m.batch_window = 16;
  m.inject_rates = {0.1, 0.0, 0.25, 0.5, 1.0};
  // Every tally distinct, so a swapped pair in the wire order shows.
  for (std::size_t i = 0; i < serve::kNumTallies; ++i) {
    m.tallies[i] = 100 + 7 * i;
  }

  serve::ManifestStream alpha;
  alpha.id = "alpha";
  alpha.resident = true;
  alpha.rows_trained = 41;
  alpha.last_touch = 99;
  alpha.last_window = 7;
  alpha.archive = "alpha-model-archive-bytes";  // opaque to the manifest
  m.streams.push_back(alpha);

  serve::ManifestStream beta;
  beta.id = "beta";
  beta.resident = false;
  beta.rows_trained = 19;
  beta.last_touch = 55;
  beta.last_window = 3;
  beta.inject_rng = "123 456 789 101112";
  beta.archive = "beta-model-archive-bytes";
  m.streams.push_back(beta);
  return m;
}

// ----------------------------------------------------------- round trips

TEST(StateDirTest, ManifestRoundTripPreservesEveryField) {
  const std::string dir = FreshDir("state_roundtrip");
  const serve::Manifest written = MakeManifest(12);
  serve::WriteManifest(dir, written);

  const std::optional<serve::Manifest> loaded =
      serve::LoadNewestManifest(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 12u);
  EXPECT_EQ(loaded->model_kind, "GLM");
  EXPECT_EQ(loaded->num_features, 3);
  EXPECT_EQ(loaded->num_classes, 2);
  EXPECT_EQ(loaded->seed, 42u);
  EXPECT_EQ(loaded->batch_window, 16u);
  EXPECT_EQ(loaded->inject_rates, written.inject_rates);
  for (std::size_t i = 0; i < serve::kNumTallies; ++i) {
    EXPECT_EQ(loaded->tallies[i], 100 + 7 * i) << "tally " << i;
  }
  ASSERT_EQ(loaded->streams.size(), 2u);
  EXPECT_EQ(loaded->streams[0].id, "alpha");
  EXPECT_TRUE(loaded->streams[0].resident);
  EXPECT_EQ(loaded->streams[0].rows_trained, 41u);
  EXPECT_EQ(loaded->streams[0].last_touch, 99u);
  EXPECT_EQ(loaded->streams[0].archive, "alpha-model-archive-bytes");
  EXPECT_EQ(loaded->streams[1].id, "beta");
  EXPECT_FALSE(loaded->streams[1].resident);
  EXPECT_EQ(loaded->streams[1].inject_rng, "123 456 789 101112");
}

TEST(StateDirTest, EmptyOrMissingDirIsAFreshStart) {
  EXPECT_FALSE(serve::LoadNewestManifest(FreshDir("state_empty")));
  EXPECT_FALSE(
      serve::LoadNewestManifest(::testing::TempDir() + "state_nonexistent"));
}

// -------------------------------------------- newest-complete + pruning

TEST(StateDirTest, NewestManifestWinsAndStaleTmpIsIgnored) {
  const std::string dir = FreshDir("state_newest");
  serve::WriteManifest(dir, MakeManifest(3));
  serve::WriteManifest(dir, MakeManifest(7));
  // A crash mid-write leaves a .tmp behind with a higher sequence; only
  // completely renamed manifests count.
  WriteFileBytes(dir + "/" + serve::ManifestFileName(9) + ".tmp", "torn");
  WriteFileBytes(dir + "/manifest-notanumber.dmtm", "junk");

  const std::optional<serve::Manifest> loaded =
      serve::LoadNewestManifest(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 7u);
}

TEST(StateDirTest, WriteManifestPrunesAllButTheSpare) {
  const std::string dir = FreshDir("state_prune");
  serve::WriteManifest(dir, MakeManifest(1));
  serve::WriteManifest(dir, MakeManifest(2));
  serve::WriteManifest(dir, MakeManifest(3));
  EXPECT_FALSE(fs::exists(dir + "/" + serve::ManifestFileName(1)));
  EXPECT_TRUE(fs::exists(dir + "/" + serve::ManifestFileName(2)));
  EXPECT_TRUE(fs::exists(dir + "/" + serve::ManifestFileName(3)));
}

TEST(StateDirTest, FileNameSequenceMismatchIsDetected) {
  const std::string dir = FreshDir("state_seqskew");
  serve::WriteManifest(dir, MakeManifest(5));
  // A manifest renamed to a different sequence (a botched manual restore)
  // must not be trusted as that sequence.
  fs::rename(dir + "/" + serve::ManifestFileName(5),
             dir + "/" + serve::ManifestFileName(6));
  EXPECT_THROW(serve::LoadNewestManifest(dir), serve::StateError);
}

// ------------------------------------------------------ corruption fuzz

TEST(StateDirTest, EveryTruncationIsATypedError) {
  const std::string dir = FreshDir("state_trunc_src");
  serve::WriteManifest(dir, MakeManifest(4));
  const std::string bytes =
      ReadFileBytes(dir + "/" + serve::ManifestFileName(4));
  ASSERT_GT(bytes.size(), 100u);

  const std::string fuzz_dir = FreshDir("state_trunc_fuzz");
  const std::string target = fuzz_dir + "/" + serve::ManifestFileName(4);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteFileBytes(target, bytes.substr(0, cut));
    EXPECT_THROW(serve::LoadNewestManifest(fuzz_dir), serve::StateError)
        << "truncation at byte " << cut << " was accepted";
  }
  // Sanity: the untruncated bytes do load.
  WriteFileBytes(target, bytes);
  EXPECT_TRUE(serve::LoadNewestManifest(fuzz_dir).has_value());
}

TEST(StateDirTest, ByteFlipsNeverCrashOnlyLoadOrTypedError) {
  const std::string dir = FreshDir("state_flip_src");
  serve::WriteManifest(dir, MakeManifest(4));
  const std::string bytes =
      ReadFileBytes(dir + "/" + serve::ManifestFileName(4));

  const std::string fuzz_dir = FreshDir("state_flip_fuzz");
  const std::string target = fuzz_dir + "/" + serve::ManifestFileName(4);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    WriteFileBytes(target, mutated);
    try {
      serve::LoadNewestManifest(fuzz_dir);  // may succeed (payload bytes)
    } catch (const serve::StateError&) {
      // typed refusal is the other acceptable outcome
    }
  }
}

TEST(StateDirTest, FormatVersionSkewIsATypedError) {
  const std::string dir = FreshDir("state_version");
  serve::WriteManifest(dir, MakeManifest(4));
  const std::string path = dir + "/" + serve::ManifestFileName(4);
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 8u);
  // Bytes 4..7 hold the little-endian format version (after the 4-byte
  // magic); a far-future version must be refused, not misparsed.
  bytes[4] = 0x63;
  bytes[5] = 0x00;
  bytes[6] = 0x00;
  bytes[7] = 0x00;
  WriteFileBytes(path, bytes);
  EXPECT_THROW(serve::LoadNewestManifest(dir), serve::StateError);
}

// ------------------------------------------------------ eviction archives

TEST(StateDirTest, EvictionArchiveRoundTripAndRemoval) {
  const std::string dir = FreshDir("state_evict");
  serve::EnsureStateDir(dir);
  serve::WriteEvictionArchive(dir, "user/42", "parked-model-bytes");
  EXPECT_EQ(serve::ReadEvictionArchive(dir, "user/42"), "parked-model-bytes");
  serve::RemoveEvictionArchive(dir, "user/42");
  EXPECT_THROW(serve::ReadEvictionArchive(dir, "user/42"), serve::StateError);
}

TEST(StateDirTest, ForeignEvictionArchiveIsDetected) {
  const std::string dir = FreshDir("state_evict_foreign");
  serve::EnsureStateDir(dir);
  serve::WriteEvictionArchive(dir, "alice", "alice-bytes");
  // Simulate a filename collision / stale rename: alice's file sitting
  // where bob's is expected. The id recorded inside the file wins.
  fs::rename(dir + "/evicted/" + serve::EvictionFileName("alice"),
             dir + "/evicted/" + serve::EvictionFileName("bob"));
  EXPECT_THROW(serve::ReadEvictionArchive(dir, "bob"), serve::StateError);
}

TEST(StateDirTest, CorruptEvictionArchiveIsATypedError) {
  const std::string dir = FreshDir("state_evict_corrupt");
  serve::EnsureStateDir(dir);
  serve::WriteEvictionArchive(dir, "carol", "carol-bytes");
  const std::string path =
      dir + "/evicted/" + serve::EvictionFileName("carol");
  const std::string bytes = ReadFileBytes(path);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
    WriteFileBytes(path, bytes.substr(0, cut));
    EXPECT_THROW(serve::ReadEvictionArchive(dir, "carol"), serve::StateError)
        << "truncation at byte " << cut << " was accepted";
  }
}

TEST(StateDirTest, EvictionFileNamesAreSafeAndDistinct) {
  const std::string hostile = serve::EvictionFileName("../../etc/passwd");
  EXPECT_EQ(hostile.find('/'), std::string::npos);
  EXPECT_NE(serve::EvictionFileName("stream-a"),
            serve::EvictionFileName("stream-b"));
  // Long ids differing only past the sanitized prefix still get distinct
  // names via the full-id hash.
  const std::string long_a(60, 'x');
  std::string long_b = long_a;
  long_b.back() = 'y';
  EXPECT_NE(serve::EvictionFileName(long_a), serve::EvictionFileName(long_b));
}

// ------------------------------------------------- pinned engine state
//
// bench/goldens/serve_manifest.dmtm, serve_stats.txt and
// serve_transcript.txt pin the manifest bytes, the `stats` text and every
// response line of one fixed GLM session that reaches every
// routing tally except state_errors, each with a different value, so a
// swap of two tallies in the wire order or in the stats line changes
// bytes. After an intentional format change, bump the serial format
// version and regenerate with
//   DMT_UPDATE_GOLDENS=1 ./dmt_tests --gtest_filter='*PinnedServeState*'

serve::ServeConfig GoldenServeConfig(const std::string& state_dir) {
  serve::ServeConfig config;
  config.num_features = 2;
  config.num_classes = 2;
  config.seed = 7;
  config.batch_window = 8;
  config.queue_capacity = 7;
  config.bad_input_policy = BadInputPolicy::kImputeMidpoint;
  config.state_dir = state_dir;
  config.model_kind = "GLM";
  config.checkpoint_every = 2;
  config.max_streams = 2;
  config.inject = robust::FaultSpec::Parse("nan=0.05,flip=0.3");
  config.factory = [](const std::string& /*id*/,
                      std::uint64_t seed) -> std::unique_ptr<Classifier> {
    linear::GlmConfig glm;
    glm.num_features = 2;
    glm.num_classes = 2;
    glm.seed = seed;
    return std::make_unique<linear::GlmClassifier>(glm);
  };
  return config;
}

std::vector<std::string> GoldenServeScript(const std::string& snapshot) {
  std::vector<std::string> lines;
  for (int i = 0; i < 160; ++i) {
    const int stream = (i / 6 + i % 3) % 7;
    std::ostringstream line;
    const double a = static_cast<double>((i * 37) % 100) / 100.0;
    const double b = static_cast<double>((i * 61) % 100) / 100.0;
    if (i % 29 == 11) {
      line << "train s" << stream << " 0.5";  // arity error
    } else if (i % 11 == 5) {
      line << "train s" << stream << " nan,nan," << i % 2;
    } else if (i % 17 == 3) {
      line << "train s" << stream << ' ' << a << ',' << b << ",5";  // bad label
    } else if (i % 5 == 2) {
      line << "score s" << stream << ' ' << a << ',' << b;
    } else {
      line << "train s" << stream << ' ' << a << ',' << b << ','
           << (a + b > 1.0 ? 1 : 0);
    }
    lines.push_back(line.str());
    if (i % 40 == 39) lines.push_back("stats");
    if (i == 90) lines.push_back("snapshot s2 " + snapshot);
    if (i == 95) lines.push_back("snapshot s1 " + snapshot);
    if (i == 100) lines.push_back("restore s1 " + snapshot);
    if (i == 105) lines.push_back("snapshot s0 " + snapshot);
    if (i == 110) lines.push_back("restore s3 " + snapshot);
    if (i == 115) lines.push_back("snapshot s6 " + snapshot);
    if (i == 120) lines.push_back("drop s4");
    if (i == 130) lines.push_back("restore s2 " + snapshot);
    if (i == 140) lines.push_back("drop s5");
  }
  lines.push_back("stats");
  return lines;
}

std::string StatsLinesOf(const std::string& responses) {
  std::istringstream in(responses);
  std::string stats;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("OK stats ", 0) == 0) stats += line + "\n";
  }
  return stats;
}

// `text` with every occurrence of the machine-specific `path` replaced by
// "<snapshot>", so the pinned transcript does not depend on the temp dir.
std::string WithPlaceholder(std::string text, const std::string& path) {
  for (std::size_t at = text.find(path); at != std::string::npos;
       at = text.find(path, at)) {
    text.replace(at, path.size(), "<snapshot>");
  }
  return text;
}

TEST(StateDirTest, PinnedServeStateMatchesGoldens) {
  const std::string dir = FreshDir("state_golden");
  const std::string snapshot = FreshDir("state_golden_snap") + "/s.dmts";
  std::ostringstream out;
  std::uint64_t seq = 0;
  std::string continued;
  {
    serve::ServeEngine engine(GoldenServeConfig(dir));
    for (const std::string& line : GoldenServeScript(snapshot)) {
      engine.ServeLine(line, out);
    }
    engine.Finish(out);
    seq = engine.checkpoints();
    // The stats line a live engine answers right after its final
    // checkpoint; a recovered engine must answer the same.
    std::ostringstream next;
    engine.ServeLine("stats", next);
    engine.Flush(next);
    continued = next.str();
  }
  const std::string manifest =
      ReadFileBytes(dir + "/" + serve::ManifestFileName(seq));
  const std::string stats = StatsLinesOf(out.str());
  const std::string transcript = WithPlaceholder(out.str(), snapshot);

  std::string golden_manifest;
  std::string golden_stats;
  std::string golden_transcript;
  testgolden::ReadOrUpdateGolden("serve_manifest.dmtm", manifest,
                                 &golden_manifest);
  testgolden::ReadOrUpdateGolden("serve_stats.txt", stats, &golden_stats);
  testgolden::ReadOrUpdateGolden("serve_transcript.txt", transcript,
                                 &golden_transcript);
  if (IsSkipped() || HasFailure()) return;
  EXPECT_EQ(manifest, golden_manifest)
      << "manifest bytes changed; bump the serial format version and "
         "regenerate the goldens (see comment above)";
  EXPECT_EQ(stats, golden_stats);
  // Every response line, not only `stats`: a change that alters responses
  // identically at every shard count passes the --shards 1 vs 4 compare
  // but not this one.
  EXPECT_EQ(transcript, golden_transcript);

  // The committed manifest recovers, and the recovered engine's first
  // stats line continues the numbering where the session stopped.
  const std::string recover_dir = FreshDir("state_golden_recover");
  WriteFileBytes(recover_dir + "/" + serve::ManifestFileName(seq),
                 golden_manifest);
  const std::optional<serve::Manifest> pinned =
      serve::LoadNewestManifest(recover_dir);
  ASSERT_TRUE(pinned.has_value());
  // Every tally holds a different value (state_errors is the only 0).
  EXPECT_EQ(std::set<std::uint64_t>(pinned->tallies.begin(),
                                    pinned->tallies.end())
                .size(),
            serve::kNumTallies);
  serve::ServeEngine recovered(GoldenServeConfig(recover_dir));
  std::ostringstream first;
  recovered.ServeLine("stats", first);
  recovered.Flush(first);
  EXPECT_EQ(first.str(), continued);
  EXPECT_NE(first.str().find(
                "\"requests\": " +
                std::to_string(pinned->tallies[serve::kRequests] + 1) + ","),
            std::string::npos)
      << first.str();
}

}  // namespace
}  // namespace dmt
