#include "anonymize/mondrian.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/radix_order.h"
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
  std::vector<size_t> spill;        // Right side of the range being cut;
                                    // sized to every row.
  // Per QI position: the (min, max) code over the range being cut, set by
  // its spread pass.
  std::vector<std::pair<uint32_t, uint32_t>> bounds;
  std::vector<uint32_t> histogram;  // Counting-cut scratch: bin code - lo.
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
// "choose_dimension" heuristic). Records the range's (min, max) code in
// state.bounds[pos].
double CodeSpread(MondrianState& state, size_t begin, size_t end,
                  size_t pos) {
  const QiColumn& qi = state.qi[pos];
  auto& [lo, hi] = state.bounds[pos];
  if (qi.numeric) {
    state.bounds[pos] = MinMaxCode(state, qi, begin, end);
    return (qi.numbers[hi] - qi.numbers[lo]) / qi.global_spread;
  }
  size_t distinct = 0;
  if (qi.distinct->size() <= 64) {
    // Every code is below 64: one bit per code, no branch per row.
    uint64_t mask = 0;
    for (size_t i = begin; i < end; ++i) {
      mask |= uint64_t{1} << qi.codes[state.rows[i]];
    }
    distinct = static_cast<size_t>(std::popcount(mask));
    lo = static_cast<uint32_t>(std::countr_zero(mask));
    hi = static_cast<uint32_t>(63 - std::countl_zero(mask));
  } else {
    if (++state.stamp == 0) {  // Wrapped: stale stamps could alias.
      std::fill(state.seen.begin(), state.seen.end(), 0u);
      state.stamp = 1;
    }
    lo = UINT32_MAX;
    hi = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t code = qi.codes[state.rows[i]];
      lo = std::min(lo, code);
      hi = std::max(hi, code);
      uint32_t& seen = state.seen[code];
      if (seen != state.stamp) {
        seen = state.stamp;
        ++distinct;
      }
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
// U does: if neither L nor U is allowable, no cut is, and v, L and U
// replace sorting the partition.
//
// When the range's codes span at most n values (state.bounds[pos], from
// the spread pass), v, L and U come from counting the codes into bins
// code - lo and walking the bins to the one that holds index n/2.
// Otherwise one selection plus one counting pass finds them. Requires
// n >= 2k.
std::optional<uint32_t> FindCut(MondrianState& state, size_t begin,
                                size_t end, size_t pos) {
  const size_t n = end - begin;
  const size_t k = state.k;
  const uint32_t* codes = state.qi[pos].codes;
  const auto [lo, hi] = state.bounds[pos];
  const size_t want = n / 2;
  uint32_t median = 0;
  size_t below = 0;
  size_t at_or_below = 0;
  if (hi - lo < n) {
    std::vector<uint32_t>& bins = state.histogram;
    bins.assign(hi - lo + 1, 0);
    for (size_t i = begin; i < end; ++i) ++bins[codes[state.rows[i]] - lo];
    uint32_t bin = 0;  // Stops at the first bin whose count passes want.
    while (below + bins[bin] <= want) below += bins[bin++];
    median = lo + bin;
    at_or_below = below + bins[bin];
  } else {
    state.cut_codes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      state.cut_codes[i] = codes[state.rows[begin + i]];
    }
    std::nth_element(state.cut_codes.begin(),
                     state.cut_codes.begin() + static_cast<long>(want),
                     state.cut_codes.end());
    median = state.cut_codes[want];
    for (uint32_t code : state.cut_codes) {
      below += code < median;
      at_or_below += code <= median;
    }
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
// the start of the right side. Branch-free: every row is written both at
// the left cursor and into the spill, and the comparison advances exactly
// one of the two (the left cursor never passes the row being read).
size_t SplitRows(MondrianState& state, size_t begin, size_t end,
                 const uint32_t* codes, uint32_t threshold) {
  size_t* rows = state.rows.data();
  size_t* spill = state.spill.data();
  size_t left = begin;
  size_t right = 0;
  for (size_t i = begin; i < end; ++i) {
    const size_t row = rows[i];
    const bool goes_left = codes[row] < threshold;
    rows[left] = row;
    spill[right] = row;
    left += goes_left;
    right += !goes_left;
  }
  std::copy(spill, spill + right, rows + left);
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
  // A range of fewer than 2k rows has no cut that leaves k on both sides.
  if (state.truncated || !state.injected.ok() || end - begin < 2 * state.k) {
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

// Label of QI `pos` over a finished partition whose codes there span
// [lo, hi]: the exact value, or the range "[lo-hi]" for numerics and
// "[lo..hi]" for ordered strings. The partition's cells are read only for
// a bound at the signed-zero code.
std::string CodeLabel(const MondrianState& state, const Dataset& data,
                      const FinishedPartition& part, size_t pos, uint32_t lo,
                      uint32_t hi) {
  const QiColumn& qi = state.qi[pos];
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
//
// Each position's label dictionary is ranked once (StringOrder), so a
// tuple of label ranks orders as its labels do; the partitions are then
// ordered by those rank tuples, one stable RadixOrder per position from
// the last to the first.
std::vector<ClassSpan> ClassesInLabelOrder(
    const MondrianState& state, std::vector<uint32_t> tuples,
    const Dataset& release, std::vector<std::vector<size_t>>& merged) {
  const size_t m = state.qi.size();
  const size_t parts = state.finished.size();
  for (size_t pos = 0; pos < m; ++pos) {
    const std::vector<std::string>& labels =
        release.dictionary(state.qi[pos].column);
    const std::vector<std::string_view> views(labels.begin(), labels.end());
    const std::vector<uint32_t> by_label = StringOrder(views);
    std::vector<uint32_t> rank(labels.size());
    for (uint32_t r = 0; r < by_label.size(); ++r) rank[by_label[r]] = r;
    for (size_t p = 0; p < parts; ++p) {
      tuples[p * m + pos] = rank[tuples[p * m + pos]];
    }
  }
  auto tuple = [&tuples, m](uint32_t part) {
    return tuples.begin() + static_cast<long>(part * m);
  };
  std::vector<uint32_t> order(parts);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<uint32_t> next(parts);
  for (size_t pos = m; pos-- > 0;) {
    const std::vector<uint32_t> by_rank =
        RadixOrder(parts, [&](uint32_t i) {
          return uint64_t{tuples[order[i] * m + pos]};
        });
    for (size_t i = 0; i < parts; ++i) next[i] = order[by_rank[i]];
    order.swap(next);
  }
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
  state.bounds.resize(qi_columns.size());
  state.rows.resize(row_count);
  state.spill.resize(row_count);
  std::iota(state.rows.begin(), state.rows.end(), size_t{0});
  Recurse(state, 0, row_count, 0, -1);
  if (!state.injected.ok()) return state.injected;

  // One label tuple per finished partition, each label interned in its
  // position's dictionary. A released QI column is the label code of each
  // row's partition; every other column is the original's, copied whole.
  // A label is a function of the partition's (min, max) codes, so each
  // position maps that range to its label code and formats a label only
  // the first time the range appears. A bound at the signed-zero code
  // reads the partition's cells, so such a range is never mapped.
  const size_t m = qi_columns.size();
  std::vector<Dataset::Column> columns =
      original->CopyColumnsExcept(qi_columns);
  std::vector<uint32_t> tuples;  // [partition * m + pos] -> label code.
  tuples.reserve(state.finished.size() * m);
  std::vector<StringInterner> interners(m);
  std::vector<std::unordered_map<uint64_t, uint32_t>> labelled(m);
  for (const FinishedPartition& part : state.finished) {
    for (size_t pos = 0; pos < m; ++pos) {
      const QiColumn& qi = state.qi[pos];
      const auto [lo, hi] = MinMaxCode(state, qi, part.begin, part.end);
      auto intern = [&] {
        return interners[pos].Intern(
            CodeLabel(state, *original, part, pos, lo, hi),
            columns[qi.column].dictionary);
      };
      if (qi.signed_zero_code == lo || qi.signed_zero_code == hi) {
        tuples.push_back(intern());
        continue;
      }
      const auto [it, inserted] =
          labelled[pos].try_emplace(uint64_t{lo} << 32 | hi, 0);
      if (inserted) it->second = intern();
      tuples.push_back(it->second);
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
      row_count,
      ClassesInLabelOrder(state, std::move(tuples), release, merged));
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
