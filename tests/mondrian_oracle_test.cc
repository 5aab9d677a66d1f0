// Differential oracle for Mondrian (anonymize/mondrian.h). The reference is
// the implementation that cut by selection and formatted one label per
// partition and position, kept here in test-local form: a spread pass per
// QI with a branch per row, a median found by nth_element plus a counting
// pass, every range visited through all its spreads, and CodeLabel called
// for every (partition, position). The library instead cuts by counting
// codes into bins code - lo when the range spans at most n codes, takes the
// spread of a string column with at most 64 codes from a bit mask shifted
// by the code, finishes a range of fewer than 2k rows before its spreads,
// and formats each (lo, hi) label once per position.
//
// On random datasets both must return the same release bytes and
// dictionaries, member lists, partition count, depth, budget steps and
// truncation flag. The datasets have 1-4 QIs of int, real and string
// type, with cardinality 1, a few, 63, 64, 65 and above the row count;
// real columns that hold both 0 and -0, reals closer than 1e-6 (they print
// alike, so classes merge), ints beyond 2^53 (they meet as doubles), k in
// {1, 2, 3, 5, 10} and step budgets that truncate the recursion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anonymize/mondrian.h"
#include "common/rng.h"
#include "common/strings.h"
#include "table/encoded_view.h"

namespace mdc {
namespace {

// ---------------------------------------------------------- reference --

struct QiColumn {
  size_t column = 0;
  const uint32_t* codes = nullptr;
  const std::vector<Value>* distinct = nullptr;
  bool numeric = false;
  std::vector<double> numbers;
  double global_spread = 1.0;
  std::optional<uint32_t> signed_zero_code;
};

struct FinishedPartition {
  size_t begin = 0;
  size_t end = 0;
  int cut_pos = -1;
};

struct MondrianState {
  std::vector<QiColumn> qi;
  size_t k = 2;
  RunContext* run = nullptr;
  std::vector<size_t> rows;
  std::vector<size_t> spill;
  std::vector<uint32_t> cut_codes;
  std::vector<uint32_t> seen;
  uint32_t stamp = 0;
  std::vector<FinishedPartition> finished;
  int max_depth = 0;
  bool truncated = false;
};

QiColumn MakeQiColumn(const Dataset& data, const EncodedView& view,
                      size_t pos) {
  QiColumn qi;
  qi.column = view.columns()[pos];
  qi.codes = view.codes(pos).data();
  qi.distinct = &view.distinct_values(pos);
  const AttributeType type = data.schema().attribute(qi.column).type;
  qi.numeric = type != AttributeType::kString;
  double spread = static_cast<double>(qi.distinct->size() - 1);
  if (qi.numeric) {
    for (const Value& value : *qi.distinct) {
      qi.numbers.push_back(value.AsNumber());
    }
    spread = qi.numbers.back() - qi.numbers.front();
  }
  qi.global_spread = spread > 0.0 ? spread : 1.0;
  if (type == AttributeType::kReal) {
    auto zero = std::find(qi.numbers.begin(), qi.numbers.end(), 0.0);
    if (zero != qi.numbers.end()) {
      const auto code = static_cast<uint32_t>(zero - qi.numbers.begin());
      const std::span<const double> cells = data.reals(qi.column);
      bool sign_seen[2] = {false, false};
      for (size_t row = 0; row < cells.size(); ++row) {
        if (qi.codes[row] == code) sign_seen[std::signbit(cells[row])] = true;
      }
      if (sign_seen[0] && sign_seen[1]) qi.signed_zero_code = code;
    }
  }
  return qi;
}

std::pair<uint32_t, uint32_t> MinMaxCode(const MondrianState& state,
                                         const QiColumn& qi, size_t begin,
                                         size_t end) {
  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  for (size_t i = begin; i < end; ++i) {
    const uint32_t code = qi.codes[state.rows[i]];
    lo = std::min(lo, code);
    hi = std::max(hi, code);
  }
  return {lo, hi};
}

double CodeSpread(MondrianState& state, size_t begin, size_t end,
                  size_t pos) {
  const QiColumn& qi = state.qi[pos];
  if (qi.numeric) {
    const auto [lo, hi] = MinMaxCode(state, qi, begin, end);
    return (qi.numbers[hi] - qi.numbers[lo]) / qi.global_spread;
  }
  if (++state.stamp == 0) {
    std::fill(state.seen.begin(), state.seen.end(), 0u);
    state.stamp = 1;
  }
  size_t distinct = 0;
  for (size_t i = begin; i < end; ++i) {
    uint32_t& seen = state.seen[qi.codes[state.rows[i]]];
    if (seen != state.stamp) {
      seen = state.stamp;
      ++distinct;
    }
  }
  return static_cast<double>(distinct - 1) / qi.global_spread;
}

std::optional<uint32_t> FindCut(MondrianState& state, size_t begin,
                                size_t end, size_t pos) {
  const size_t n = end - begin;
  const size_t k = state.k;
  if (n < 2 * k) return std::nullopt;
  const uint32_t* codes = state.qi[pos].codes;
  state.cut_codes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    state.cut_codes[i] = codes[state.rows[begin + i]];
  }
  const size_t want = n / 2;
  std::nth_element(state.cut_codes.begin(),
                   state.cut_codes.begin() + static_cast<long>(want),
                   state.cut_codes.end());
  const uint32_t median = state.cut_codes[want];
  size_t below = 0;
  size_t at_or_below = 0;
  for (uint32_t code : state.cut_codes) {
    below += code < median;
    at_or_below += code <= median;
  }
  const bool lower_ok = below >= k;
  const bool upper_ok = at_or_below < n && n - at_or_below >= k;
  if (lower_ok && (!upper_ok || want - below <= at_or_below - want)) {
    return median;
  }
  if (upper_ok) return median + 1;
  return std::nullopt;
}

size_t SplitRows(MondrianState& state, size_t begin, size_t end,
                 const uint32_t* codes, uint32_t threshold) {
  size_t left = begin;
  state.spill.clear();
  for (size_t i = begin; i < end; ++i) {
    const size_t row = state.rows[i];
    if (codes[row] < threshold) {
      state.rows[left++] = row;
    } else {
      state.spill.push_back(row);
    }
  }
  std::copy(state.spill.begin(), state.spill.end(),
            state.rows.begin() + static_cast<long>(left));
  return left;
}

void Recurse(MondrianState& state, size_t begin, size_t end, int depth,
             int cut_pos) {
  state.max_depth = std::max(state.max_depth, depth);
  if (!state.truncated && !RunContext::Check(state.run).ok()) {
    state.truncated = true;
  }
  if (state.truncated) {
    state.finished.push_back({begin, end, cut_pos});
    return;
  }
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t pos = 0; pos < state.qi.size(); ++pos) {
    double spread = CodeSpread(state, begin, end, pos);
    if (spread > 0.0) ranked.emplace_back(-spread, pos);
  }
  std::sort(ranked.begin(), ranked.end());
  for (const auto& [neg_spread, pos] : ranked) {
    if (std::optional<uint32_t> threshold = FindCut(state, begin, end, pos)) {
      const size_t mid =
          SplitRows(state, begin, end, state.qi[pos].codes, *threshold);
      Recurse(state, begin, mid, depth + 1, static_cast<int>(pos));
      Recurse(state, mid, end, depth + 1, static_cast<int>(pos));
      return;
    }
  }
  state.finished.push_back({begin, end, cut_pos});
}

double FirstZero(const MondrianState& state, const Dataset& data,
                 const FinishedPartition& part, const QiColumn& qi) {
  const uint32_t* cut =
      part.cut_pos < 0 ? nullptr : state.qi[part.cut_pos].codes;
  std::optional<std::pair<uint32_t, size_t>> first;
  for (size_t i = part.begin; i < part.end; ++i) {
    const size_t row = state.rows[i];
    if (qi.codes[row] != *qi.signed_zero_code) continue;
    const std::pair<uint32_t, size_t> key{cut == nullptr ? 0 : cut[row], row};
    if (!first || key < *first) first = key;
  }
  return data.reals(qi.column)[first->second];
}

std::string RangeLabel(const std::string& lo, const char* sep,
                       const std::string& hi) {
  std::string label = "[";
  label.append(lo).append(sep).append(hi).append("]");
  return label;
}

std::string CodeLabel(const MondrianState& state, const Dataset& data,
                      const FinishedPartition& part, size_t pos) {
  const QiColumn& qi = state.qi[pos];
  const auto [lo, hi] = MinMaxCode(state, qi, part.begin, part.end);
  if (!qi.numeric) {
    const std::string& low = (*qi.distinct)[lo].AsString();
    if (lo == hi) return low;
    return RangeLabel(low, "..", (*qi.distinct)[hi].AsString());
  }
  double low = qi.numbers[lo];
  double high = qi.numbers[hi];
  if (qi.signed_zero_code == lo || qi.signed_zero_code == hi) {
    const double zero = FirstZero(state, data, part, qi);
    if (qi.signed_zero_code == lo) low = zero;
    if (qi.signed_zero_code == hi) high = zero;
  }
  if (low == high) return FormatCompact(low);
  return RangeLabel(FormatCompact(low), "-", FormatCompact(high));
}

std::vector<ClassSpan> ClassesInLabelOrder(
    const MondrianState& state, const std::vector<uint32_t>& tuples,
    const Dataset& release, std::vector<std::vector<size_t>>& merged) {
  const size_t m = state.qi.size();
  auto tuple = [&tuples, m](uint32_t part) {
    return tuples.begin() + static_cast<long>(part * m);
  };
  std::vector<uint32_t> order(state.finished.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const auto [at_a, at_b] = std::mismatch(tuple(a), tuple(a) + m, tuple(b));
    if (at_a == tuple(a) + m) return false;
    const std::vector<std::string>& labels = release.dictionary(
        state.qi[static_cast<size_t>(at_a - tuple(a))].column);
    return labels[*at_a] < labels[*at_b];
  });
  std::vector<ClassSpan> classes;
  merged.reserve(order.size());
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() &&
           std::equal(tuple(order[i]), tuple(order[i]) + m, tuple(order[j]))) {
      ++j;
    }
    if (j == i + 1) {
      const FinishedPartition& part = state.finished[order[i]];
      classes.emplace_back(state.rows.data() + part.begin,
                           part.end - part.begin);
    } else {
      std::vector<size_t>& members = merged.emplace_back();
      for (size_t t = i; t < j; ++t) {
        const FinishedPartition& part = state.finished[order[t]];
        members.insert(members.end(), state.rows.begin() + part.begin,
                       state.rows.begin() + part.end);
      }
      std::sort(members.begin(), members.end());
      classes.emplace_back(members.data(), members.size());
    }
    i = j;
  }
  return classes;
}

// What MondrianAnonymize returns, with the classes as member lists.
struct ReferenceResult {
  Dataset release;
  std::vector<std::vector<size_t>> classes;
  size_t partition_count = 0;
  int max_depth = 0;
  RunStats run_stats;
};

StatusOr<ReferenceResult> ReferenceMondrian(
    std::shared_ptr<const Dataset> original, const MondrianConfig& config,
    RunContext* run) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  const Schema& schema = original->schema();
  std::vector<size_t> qi_columns = schema.QuasiIdentifierIndices();
  const size_t row_count = original->row_count();
  if (row_count < static_cast<size_t>(config.k)) {
    return Status::Infeasible("Mondrian: fewer than k rows");
  }
  MDC_ASSIGN_OR_RETURN(EncodedView view,
                       EncodedView::Build(*original, qi_columns));
  MondrianState state;
  state.k = static_cast<size_t>(config.k);
  state.run = run;
  size_t string_codes = 0;
  for (size_t pos = 0; pos < qi_columns.size(); ++pos) {
    state.qi.push_back(MakeQiColumn(*original, view, pos));
    if (!state.qi.back().numeric) {
      string_codes = std::max(string_codes, state.qi.back().distinct->size());
    }
  }
  state.seen.assign(string_codes, 0);
  state.rows.resize(row_count);
  std::iota(state.rows.begin(), state.rows.end(), size_t{0});
  Recurse(state, 0, row_count, 0, -1);

  const size_t m = qi_columns.size();
  std::vector<Dataset::Column> columns =
      original->CopyColumnsExcept(qi_columns);
  std::vector<uint32_t> tuples;
  tuples.reserve(state.finished.size() * m);
  std::vector<StringInterner> interners(m);
  for (const FinishedPartition& part : state.finished) {
    for (size_t pos = 0; pos < m; ++pos) {
      tuples.push_back(interners[pos].Intern(
          CodeLabel(state, *original, part, pos),
          columns[qi_columns[pos]].dictionary));
    }
  }
  for (size_t pos = 0; pos < m; ++pos) {
    std::vector<uint32_t>& codes = columns[qi_columns[pos]].codes;
    codes.resize(row_count);
    for (size_t p = 0; p < state.finished.size(); ++p) {
      const FinishedPartition& part = state.finished[p];
      const uint32_t code = tuples[p * m + pos];
      for (size_t i = part.begin; i < part.end; ++i) {
        codes[state.rows[i]] = code;
      }
    }
  }
  MDC_ASSIGN_OR_RETURN(Schema release_schema,
                       Generalizer::ReleaseSchema(schema, qi_columns));
  MDC_ASSIGN_OR_RETURN(
      Dataset release,
      Dataset::FromColumns(std::move(release_schema), std::move(columns)));
  std::vector<std::vector<size_t>> merged;
  std::vector<std::vector<size_t>> classes;
  for (ClassSpan span : ClassesInLabelOrder(state, tuples, release, merged)) {
    classes.emplace_back(span.begin(), span.end());
  }
  return ReferenceResult{std::move(release), std::move(classes),
                         state.finished.size(), state.max_depth,
                         RunContext::Stats(run, state.truncated)};
}

// ------------------------------------------------------------ datasets --

constexpr AttributeRole kQi = AttributeRole::kQuasiIdentifier;

// `cardinality` distinct values of `type`. Int pools may start beyond
// 2^53, where neighbours meet as doubles; real pools may hold both zeros
// or values 1e-7 apart, which print alike.
std::vector<Value> ValuePool(AttributeType type, size_t cardinality,
                             Rng& rng) {
  std::vector<Value> pool;
  switch (type) {
    case AttributeType::kInt: {
      const int64_t bases[] = {0, -40, (int64_t{1} << 53) - 3,
                               -(int64_t{1} << 53) - 5,
                               INT64_MAX - 4 * static_cast<int64_t>(
                                               cardinality)};
      const int64_t base = bases[rng.NextBelow(5)];
      const int64_t step = rng.NextBool(0.5) ? 1 : 3;
      for (size_t i = 0; i < cardinality; ++i) {
        pool.emplace_back(base + static_cast<int64_t>(i) * step);
      }
      break;
    }
    case AttributeType::kReal: {
      const bool close = rng.NextBool(0.3);
      const double step = close ? 1e-7 : 0.25;
      const double base = close ? 1.0 : -0.25 * static_cast<double>(
                                                  cardinality / 2);
      for (size_t i = 0; i < cardinality; ++i) {
        pool.emplace_back(base + static_cast<double>(i) * step);
      }
      // Both zeros: one code, two printings.
      if (rng.NextBool(0.5)) {
        pool.emplace_back(0.0);
        pool.emplace_back(-0.0);
      }
      break;
    }
    case AttributeType::kString:
      for (size_t i = 0; i < cardinality; ++i) {
        pool.emplace_back("v" + std::to_string(rng.NextBelow(1000000)) +
                          "_" + std::to_string(i));
      }
      break;
  }
  return pool;
}

struct Case {
  std::shared_ptr<const Dataset> data;
  int k = 2;
  std::optional<uint64_t> max_steps;
};

Case RandomCase(uint64_t seed) {
  Rng rng(seed);
  Case c;
  const size_t rows = rng.NextBool(0.2) ? 1 + rng.NextBelow(3000)
                                        : 1 + rng.NextBelow(300);
  const int ks[] = {1, 2, 3, 5, 10};
  c.k = ks[rng.NextBelow(5)];
  if (rng.NextBool(0.25)) c.max_steps = 1 + rng.NextBelow(60);
  const size_t qis = 1 + rng.NextBelow(4);
  std::vector<AttributeDef> attributes;
  std::vector<std::vector<Value>> pools;
  std::vector<double> skew;  // Probability that a cell takes pool[0].
  for (size_t q = 0; q < qis; ++q) {
    const auto type = static_cast<AttributeType>(rng.NextBelow(3));
    const size_t cardinalities[] = {1,  2 + rng.NextBelow(6), 63, 64, 65,
                                    rows + 1 + rng.NextBelow(rows + 1)};
    const size_t cardinality = cardinalities[rng.NextBelow(6)];
    attributes.push_back({"q" + std::to_string(q), type, kQi});
    pools.push_back(ValuePool(type, cardinality, rng));
    skew.push_back(rng.NextBool(0.3) ? 0.5 : 0.0);
  }
  attributes.push_back(
      {"s", AttributeType::kString, AttributeRole::kSensitive});
  auto schema = Schema::Create(attributes);
  MDC_CHECK(schema.ok());
  auto data = std::make_shared<Dataset>(*schema);
  for (size_t r = 0; r < rows; ++r) {
    Dataset::Row row;
    for (size_t q = 0; q < qis; ++q) {
      const std::vector<Value>& pool = pools[q];
      row.push_back(rng.NextBool(skew[q]) ? pool[0]
                                          : pool[rng.NextBelow(pool.size())]);
    }
    row.emplace_back("d" + std::to_string(rng.NextBelow(4)));
    MDC_CHECK(data->AppendRow(std::move(row)).ok());
  }
  c.data = std::move(data);
  return c;
}

std::vector<std::vector<size_t>> Members(const EquivalencePartition& p) {
  std::vector<std::vector<size_t>> members;
  for (size_t c = 0; c < p.class_count(); ++c) {
    const auto span = p.class_members(c);
    members.emplace_back(span.begin(), span.end());
  }
  return members;
}

TEST(MondrianOracleTest, RandomDatasetsMatchTheReference) {
  constexpr uint64_t kCases = 1500;
  size_t truncated = 0;
  size_t merged = 0;
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    const Case c = RandomCase(seed);
    MondrianConfig config;
    config.k = c.k;
    RunContext run;
    RunContext reference_run;
    if (c.max_steps) {
      run.set_max_steps(*c.max_steps);
      reference_run.set_max_steps(*c.max_steps);
    }
    auto got = MondrianAnonymize(c.data, config, &run);
    auto want = ReferenceMondrian(c.data, config, &reference_run);
    ASSERT_EQ(got.ok(), want.ok()) << "seed " << seed;
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    const Dataset& release = got->anonymization.release;
    const Dataset& expected = want->release;
    ASSERT_EQ(release.ToCsv(), expected.ToCsv()) << "seed " << seed;
    for (size_t column : got->anonymization.qi_columns) {
      ASSERT_EQ(release.dictionary(column), expected.dictionary(column))
          << "seed " << seed << " column " << column;
    }
    ASSERT_EQ(Members(got->partition), want->classes) << "seed " << seed;
    EXPECT_EQ(got->partition_count, want->partition_count) << "seed " << seed;
    EXPECT_EQ(got->max_depth, want->max_depth) << "seed " << seed;
    EXPECT_EQ(got->run_stats.steps, want->run_stats.steps) << "seed " << seed;
    EXPECT_EQ(got->run_stats.truncated, want->run_stats.truncated)
        << "seed " << seed;
    truncated += want->run_stats.truncated;
    merged += want->classes.size() < want->partition_count;
  }
  // The budget and label-merge paths were exercised, not just drawn.
  EXPECT_GT(truncated, kCases / 20);
  EXPECT_GT(merged, kCases / 50);
}

}  // namespace
}  // namespace mdc
