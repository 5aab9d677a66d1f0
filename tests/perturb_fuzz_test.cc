// Hostile-input fuzz for the perturbation surfaces: config params (the
// batch/service key=value spelling), the service submit line with
// kind=perturb, and the perturb checkpoint codec under byte corruption.
// The contract under fuzz is uniform across the repo: any input either
// parses or is rejected with a clean Status — never a crash, hang, or
// over-allocation — and whatever parses must validate and round-trip.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/perturb/perturb.h"
#include "common/rng.h"
#include "service/job_spec.h"
#include "table/dataset.h"
#include "table/schema.h"

namespace mdc {
namespace {

std::string RandomToken(Rng& rng, size_t max_len) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789_.-+eE \t=\\\"'%{}[]";
  size_t len = rng.NextBelow(max_len + 1);
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)];
  }
  return out;
}

std::string RandomValueToken(Rng& rng) {
  switch (rng.NextBelow(6)) {
    case 0: return std::to_string(static_cast<int64_t>(rng.NextBelow(1u << 30)));
    case 1: return std::string("-").append(std::to_string(rng.NextBelow(1000)));
    case 2: return std::to_string(rng.NextDouble());
    case 3: return "nan";
    case 4: return "1e" + std::to_string(rng.NextBelow(400));
    default: return RandomToken(rng, 12);
  }
}

// Params fuzz: random key/value maps must never crash, and an accepted
// config must pass validation and drive a real run without fault.
TEST(PerturbFuzzTest, ConfigFromParamsNeverCrashes) {
  static constexpr const char* kKeys[] = {"mechanism", "seed", "noise_scale",
                                          "swap_window", "k", "bogus",
                                          "mechanism "};
  static constexpr const char* kMechanisms[] = {"noise", "rankswap",
                                                "microagg", "NOISE", "",
                                                "swap", "noise\n"};
  Rng rng(2026);
  int accepted = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::map<std::string, std::string> params;
    size_t entries = rng.NextBelow(5);
    for (size_t e = 0; e < entries; ++e) {
      std::string key = rng.NextBelow(4) == 0
                            ? RandomToken(rng, 16)
                            : kKeys[rng.NextBelow(std::size(kKeys))];
      std::string value =
          key == "mechanism" && rng.NextBelow(2) == 0
              ? kMechanisms[rng.NextBelow(std::size(kMechanisms))]
              : RandomValueToken(rng);
      params[key] = value;
    }
    auto config = PerturbConfigFromParams(params);
    if (config.ok()) {
      ++accepted;
      EXPECT_TRUE(ValidatePerturbConfig(*config).ok());
    }
  }
  // The generator produces plenty of valid configs (empty maps are valid:
  // every knob has a default), so acceptance is exercised too.
  EXPECT_GT(accepted, 100);
}

// Submit-line fuzz: kind=perturb specs through the real protocol parser.
TEST(PerturbFuzzTest, SubmitSpecWithPerturbKindNeverCrashes) {
  Rng rng(4052);
  int accepted = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    // ParseSubmitSpec receives the text after the "submit " verb: the job
    // id first, then key=value tokens.
    std::string line = "job" + std::to_string(iteration);
    line += " kind=perturb";
    size_t extras = rng.NextBelow(5);
    for (size_t e = 0; e < extras; ++e) {
      line.append(" ").append(RandomToken(rng, 10)).append("=").append(
          RandomValueToken(rng));
    }
    if (rng.NextBelow(4) == 0) line.append(" ").append(RandomToken(rng, 20));
    auto spec = service::ParseSubmitSpec(line);
    if (spec.ok()) {
      ++accepted;
      EXPECT_EQ(spec->kind, "perturb");
    }
  }
  EXPECT_GT(accepted, 100);
}

// Checkpoint codec fuzz: bit-flipped / truncated / extended snapshots must
// be rejected cleanly; the pristine bytes must round-trip.
TEST(PerturbFuzzTest, CheckpointCodecSurvivesCorruption) {
  std::vector<AttributeDef> attributes;
  AttributeDef attr;
  attr.name = "v";
  attr.type = AttributeType::kReal;
  attr.role = AttributeRole::kQuasiIdentifier;
  attributes.push_back(attr);
  auto schema = Schema::Create(std::move(attributes));
  ASSERT_TRUE(schema.ok());
  Dataset raw(*schema);
  Rng data_rng(9);
  for (int r = 0; r < 24; ++r) {
    std::vector<Value> row;
    row.emplace_back(data_rng.NextDouble());
    ASSERT_TRUE(raw.AppendRow(std::move(row)).ok());
  }
  auto data = std::make_shared<const Dataset>(std::move(raw));

  PerturbConfig config;
  config.mechanism = PerturbMechanism::kNoise;
  RunContext budgeted;
  budgeted.set_max_steps(1);  // Expire before the first column completes.
  PerturbCheckpoint checkpoint;
  auto expired = PerturbAnonymize(data, config, &budgeted, &checkpoint);
  ASSERT_FALSE(expired.ok());
  ASSERT_TRUE(checkpoint.has_state());
  auto bytes = checkpoint.SaveCheckpoint();
  ASSERT_TRUE(bytes.ok());

  PerturbCheckpoint pristine;
  EXPECT_TRUE(pristine.ResumeFrom(*bytes).ok());

  Rng rng(77);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string mutated = *bytes;
    switch (rng.NextBelow(3)) {
      case 0: {  // Bit flip.
        size_t pos = rng.NextBelow(mutated.size());
        mutated[pos] = static_cast<char>(
            static_cast<uint8_t>(mutated[pos]) ^ (1u << rng.NextBelow(8)));
        break;
      }
      case 1:  // Truncate.
        mutated.resize(rng.NextBelow(mutated.size()));
        break;
      default:  // Extend with junk.
        mutated += RandomToken(rng, 16);
        break;
    }
    PerturbCheckpoint corrupted;
    Status status = corrupted.ResumeFrom(mutated);
    // Either cleanly rejected, or (bit flips in the payload CAN cancel
    // out — e.g. flipping a padding-free field back) accepted; accepted
    // states must still be internally consistent enough to refuse or
    // complete a resume without crashing.
    if (status.ok()) {
      auto resumed = PerturbAnonymize(data, config, nullptr, &corrupted);
      (void)resumed;
    }
  }
}

}  // namespace
}  // namespace mdc
