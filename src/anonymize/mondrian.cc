#include "anonymize/mondrian.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/strings.h"
#include "table/encoded_view.h"

namespace mdc {
namespace {

// One quasi-identifier as the partitioner sees it. A code is the rank of
// the cell's Value among the column's sorted distinct values
// (table/encoded_view.h), so comparing codes compares Values: the cuts run
// on u32 and a Value is read again only to print a label.
struct QiColumn {
  size_t column = 0;
  const uint32_t* codes = nullptr;
  const std::vector<Value>* distinct = nullptr;
  bool numeric = false;
  std::vector<double> numbers;  // distinct[i].AsNumber(), numeric only.
  double global_spread = 1.0;
  // Value == makes 0 and -0 one value with one code, but FormatCompact
  // prints "-0". Set when a real column holds both: a label bounded by
  // this code reads the sign from the cells (FirstZero).
  std::optional<uint32_t> signed_zero_code;
};

// A finished partition: rows[begin, end), ascending. `cut_pos` is the QI
// position of the cut that produced it, -1 for the unsplit root.
struct FinishedPartition {
  size_t begin = 0;
  size_t end = 0;
  int cut_pos = -1;
};

struct MondrianState {
  std::vector<QiColumn> qi;
  size_t k = 2;
  RunContext* run = nullptr;
  // Every partition is a range of `rows`; a cut reorders only its own
  // range and keeps both sides ascending.
  std::vector<size_t> rows;
  std::vector<size_t> spill;        // Right side of the range being cut.
  std::vector<uint32_t> cut_codes;  // Median-selection scratch.
  std::vector<uint32_t> seen;       // Per string code: last stamp counted.
  uint32_t stamp = 0;
  std::vector<FinishedPartition> finished;
  int max_depth = 0;
  bool truncated = false;     // Budget expired; stop splitting, keep rows.
  Status injected;            // Failpoint fault; abort the whole run.
};

QiColumn MakeQiColumn(const Dataset& data, const EncodedView& view,
                      size_t pos) {
  QiColumn qi;
  qi.column = view.columns()[pos];
  qi.codes = view.codes(pos).data();
  qi.distinct = &view.distinct_values(pos);
  const AttributeType type = data.schema().attribute(qi.column).type;
  qi.numeric = type != AttributeType::kString;
  // Global spread: the spread over all rows, codes 0 .. D-1.
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

// (min, max) code of `qi` over rows[begin, end).
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

// Normalized spread of QI `pos` over rows[begin, end): (#distinct - 1)
// for strings, (max - min) for numerics, both scaled by the column's
// global spread so dimensions are comparable (LeFevre's
// "choose_dimension" heuristic).
double CodeSpread(MondrianState& state, size_t begin, size_t end,
                  size_t pos) {
  const QiColumn& qi = state.qi[pos];
  if (qi.numeric) {
    const auto [lo, hi] = MinMaxCode(state, qi, begin, end);
    return (qi.numbers[hi] - qi.numbers[lo]) / qi.global_spread;
  }
  if (++state.stamp == 0) {  // Wrapped: stale stamps could alias.
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

// Strict median cut of rows[begin, end) on QI `pos`: both sides keep >= k
// rows and rows with equal values never straddle the cut. Returns the
// threshold code (the left side is every row whose code is below it), or
// nullopt when no allowable cut exists.
//
// Among the allowable cuts this picks the one nearest the median index
// n/2, the lower on a tie. Let v be the code at index n/2 in sorted order,
// L the count of codes below v and U the count at or below it. Every cut
// between distinct values is a count of codes below some value, so L and
// U are the nearest candidates on either side of n/2. A cut below L keeps
// fewer rows on the left than L does, one above U fewer on the right than
// U does: if neither L nor U is allowable, no cut is, and one selection
// plus one counting pass replaces sorting the partition.
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
  std::nth_element(state.cut_codes.begin(), state.cut_codes.begin() + want,
                   state.cut_codes.end());
  const uint32_t median = state.cut_codes[want];
  size_t below = 0;
  size_t at_or_below = 0;
  for (uint32_t code : state.cut_codes) {
    below += code < median;
    at_or_below += code <= median;
  }
  // n >= 2k gives n - below >= k and at_or_below > want >= k for free.
  const bool lower_ok = below >= k;
  const bool upper_ok = at_or_below < n && n - at_or_below >= k;
  if (lower_ok && (!upper_ok || want - below <= at_or_below - want)) {
    return median;
  }
  if (upper_ok) return median + 1;
  return std::nullopt;
}

// Stable split of rows[begin, end) by `codes[row] < threshold`; returns
// the start of the right side.
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
  // On budget expiry the current rows are released unsplit: still >= k
  // rows per partition, so k-anonymity is preserved at coarser utility.
  if (!state.truncated && !RunContext::Check(state.run).ok()) {
    state.truncated = true;
  }
  if (state.injected.ok()) {
    if (Status status = failpoint::Trigger("mondrian.split"); !status.ok()) {
      state.injected = std::move(status);
    }
  }
  if (state.truncated || !state.injected.ok()) {
    state.finished.push_back({begin, end, cut_pos});
    return;
  }
  // Rank QI columns by normalized spread, widest first (ties to the lower
  // column), and take the first allowable cut.
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

// The zero a label prints when both signs share the bound's code. A bound
// prints the first cell that attains it with the partition's rows ordered
// by the cutting column's value, then by row (row order at the root); the
// order matters only here, for the sign of zero.
double FirstZero(const MondrianState& state, const Dataset& data,
                 const FinishedPartition& part, const QiColumn& qi) {
  const uint32_t* cut =
      part.cut_pos < 0 ? nullptr : state.qi[part.cut_pos].codes;
  std::optional<std::pair<uint32_t, size_t>> first;  // (cut code, row)
  for (size_t i = part.begin; i < part.end; ++i) {
    const size_t row = state.rows[i];
    if (qi.codes[row] != *qi.signed_zero_code) continue;
    const std::pair<uint32_t, size_t> key{cut == nullptr ? 0 : cut[row], row};
    if (!first || key < *first) first = key;
  }
  return data.reals(qi.column)[first->second];
}

// "[lo<sep>hi]".
std::string RangeLabel(const std::string& lo, const char* sep,
                       const std::string& hi) {
  std::string label = "[";
  label.append(lo).append(sep).append(hi).append("]");
  return label;
}

// Label of QI `pos` over a finished partition: the exact value, or the
// range "[lo-hi]" for numerics and "[lo..hi]" for ordered strings.
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
  // Compared as doubles: distinct int64 codes can print as one number.
  if (low == high) return FormatCompact(low);
  return RangeLabel(FormatCompact(low), "-", FormatCompact(high));
}

// The classes FromColumns would group the release into, without reading
// it back: finished partitions in label-tuple order (lexicographic over
// the label strings), partitions that print the same tuple merged into
// one class. `tuples` holds each partition's label codes into the
// release's QI columns; a dictionary holds each label once, so equal codes
// are equal labels. FormatCompact keeps 6 decimals, so reals closer than
// 1e-6 can collide. Merged member lists are stored in `merged`.
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
  merged.reserve(order.size());  // Spans point into the inner vectors.
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

}  // namespace

StatusOr<MondrianResult> MondrianAnonymize(
    std::shared_ptr<const Dataset> original, const MondrianConfig& config,
    RunContext* run) {
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (original == nullptr) {
    return Status::InvalidArgument("null original dataset");
  }
  const Schema& schema = original->schema();
  std::vector<size_t> qi_columns = schema.QuasiIdentifierIndices();
  if (qi_columns.empty()) {
    return Status::FailedPrecondition(
        "Mondrian requires at least one quasi-identifier column");
  }
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
  if (!state.injected.ok()) return state.injected;

  // One label tuple per finished partition, each label interned in its
  // position's dictionary. A released QI column is the label code of each
  // row's partition; every other column is the original's, copied whole.
  const size_t m = qi_columns.size();
  std::vector<Dataset::Column> columns =
      original->CopyColumnsExcept(qi_columns);
  std::vector<uint32_t> tuples;  // [partition * m + pos] -> label code.
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

  MondrianResult result;
  std::vector<std::vector<size_t>> merged;
  result.partition = EquivalencePartition::FromOrderedGroups(
      row_count, ClassesInLabelOrder(state, tuples, release, merged));
  result.partition_count = state.finished.size();
  result.max_depth = state.max_depth;
  result.run_stats = RunContext::Stats(run, state.truncated);
  result.anonymization =
      Anonymization{std::move(original),
                    std::move(release),
                    qi_columns,
                    std::vector<bool>(row_count, false),
                    std::nullopt,
                    "mondrian"};
  return result;
}

}  // namespace mdc
