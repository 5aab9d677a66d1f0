// Differential oracle for the CSV tokenizer (common/csv.h). The reference
// is the tokenizer that scanned one byte at a time and kept each record's
// fields as offsets until the record ended, kept here in test-local form.
// The library tests eight bytes at a time for ',', '\n', '"' and '\r' and
// hands out every hit of a word in order; on every text both must deliver
// the same records, field for field, and return the same Status.
//
// Texts: every string of up to 7 bytes over {a, ',', '\n', '"', '\r'}, and
// random texts of 0-80 bytes (every length mod 8) built from records whose
// fields may be quoted around commas, newlines and doubled quotes, with
// CR and CRLF endings, blank lines, trailing commas, no final newline, and
// stray quotes and CRs that drive both error messages.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"

namespace mdc {
namespace {

// ---------------------------------------------------------- reference --

bool IsSpecial(char c) {
  return c == ',' || c == '\n' || c == '"' || c == '\r';
}

Status ReferenceForEachCsvRecord(
    std::string_view text,
    const std::function<void(std::span<const std::string_view>)>& on_record) {
  struct Span {
    bool copied = false;
    size_t begin = 0;
    size_t size = 0;
  };
  std::vector<Span> spans;
  std::vector<std::string_view> fields;
  std::string scratch;
  const size_t n = text.size();
  size_t i = 0;
  bool in_record = false;
  while (true) {
    if (!in_record) {
      while (i < n && (text[i] == '\r' || text[i] == '\n')) ++i;
      if (i == n) return Status::Ok();
      in_record = true;
    }
    Span span{false, i, 0};
    bool in_quotes = false;
    char terminator = 0;
    while (i < n) {
      if (!span.copied && !in_quotes) {
        while (i < n && !IsSpecial(text[i])) ++i;
        if (i == n) break;
      }
      const char c = text[i];
      if (in_quotes) {
        if (c == '"' && i + 1 < n && text[i + 1] == '"') {
          scratch += '"';
          i += 2;
        } else {
          if (c == '"') {
            in_quotes = false;
          } else {
            scratch += c;
          }
          ++i;
        }
        continue;
      }
      if (c == ',' || c == '\n') {
        terminator = c;
        break;
      }
      if (c == '"' || c == '\r') {
        const bool empty =
            span.copied ? scratch.size() == span.begin : i == span.begin;
        if (c == '"' && !empty) {
          return Status::InvalidArgument(
              "quote in the middle of an unquoted CSV field");
        }
        if (!span.copied) {
          const size_t begin = span.begin;
          span = {true, scratch.size(), 0};
          scratch.append(text.substr(begin, i - begin));
        }
        in_quotes = c == '"';
        ++i;
        continue;
      }
      if (span.copied) scratch += c;
      ++i;
    }
    if (in_quotes) {
      return Status::InvalidArgument("unterminated quoted CSV field");
    }
    span.size = span.copied ? scratch.size() - span.begin : i - span.begin;
    spans.push_back(span);
    if (i < n) ++i;
    if (terminator == ',') continue;
    fields.clear();
    for (const Span& s : spans) {
      fields.push_back(s.copied
                           ? std::string_view(scratch).substr(s.begin, s.size)
                           : text.substr(s.begin, s.size));
    }
    on_record(fields);
    spans.clear();
    scratch.clear();
    in_record = false;
  }
}

// ------------------------------------------------------------- harness --

struct Tokenized {
  std::vector<std::vector<std::string>> records;
  std::string status;
};

using TokenizerFn = Status (*)(
    std::string_view,
    const std::function<void(std::span<const std::string_view>)>&);

Tokenized Tokenize(TokenizerFn tokenizer, std::string_view text) {
  Tokenized out;
  // The text sits in a heap block of exactly its size (a std::string
  // would keep a short text inside itself), so under ASan a read past its
  // end is a report rather than a read of the neighbouring bytes.
  const std::vector<char> copy(text.begin(), text.end());
  const Status status = tokenizer(
      std::string_view(copy.data(), copy.size()),
      [&out](std::span<const std::string_view> fields) {
        out.records.emplace_back(fields.begin(), fields.end());
      });
  out.status = status.ToString();
  return out;
}

// Counts of the outcomes the random texts reached.
struct Outcomes {
  size_t ok = 0;
  size_t quote_in_field = 0;
  size_t unterminated = 0;
};

void ExpectSameTokens(std::string_view text, Outcomes& outcomes) {
  const Tokenized want = Tokenize(&ReferenceForEachCsvRecord, text);
  const Tokenized got = Tokenize(&ForEachCsvRecord, text);
  ASSERT_EQ(got.status, want.status) << "text: " << testing::PrintToString(
                                            std::string(text));
  ASSERT_EQ(got.records, want.records)
      << "text: " << testing::PrintToString(std::string(text));
  if (want.status.find("quote in the middle") != std::string::npos) {
    ++outcomes.quote_in_field;
  } else if (want.status.find("unterminated") != std::string::npos) {
    ++outcomes.unterminated;
  } else {
    ++outcomes.ok;
  }
}

// One random field: plain, quoted (with commas, newlines, CRs and doubled
// quotes inside) or malformed (a quote after data, an unclosed quote, a
// stray CR, text after a closing quote).
std::string RandomField(Rng& rng) {
  static constexpr char kPlain[] = "abcxyz019 -._";
  auto plain = [&rng](size_t length) {
    std::string s;
    for (size_t i = 0; i < length; ++i) {
      s += kPlain[rng.NextBelow(sizeof(kPlain) - 1)];
    }
    return s;
  };
  switch (rng.NextBelow(10)) {
    case 0:
      return "";
    case 1:
    case 2: {
      std::string s = "\"";
      const size_t parts = rng.NextBelow(4);
      for (size_t p = 0; p < parts; ++p) {
        s += plain(rng.NextBelow(6));
        static constexpr const char* kInside[] = {",", "\n", "\"\"", "\r",
                                                  "\r\n"};
        s += kInside[rng.NextBelow(5)];
      }
      s += plain(rng.NextBelow(6));
      if (rng.NextBool(0.95)) s += '"';
      if (rng.NextBool(0.1)) s += plain(1 + rng.NextBelow(3));
      return s;
    }
    case 3: {
      const std::string s = plain(rng.NextBelow(5));
      const size_t at = rng.NextBelow(s.size() + 1);
      std::string stray = s.substr(0, at);
      stray += rng.NextBool(0.5) ? '\r' : '"';
      return stray.append(s.substr(at));
    }
    default:
      return plain(rng.NextBelow(rng.NextBool(0.2) ? 20 : 7));
  }
}

std::string RandomText(Rng& rng) {
  std::string text;
  const size_t records = rng.NextBelow(6);
  for (size_t r = 0; r < records; ++r) {
    if (rng.NextBool(0.15)) text += rng.NextBool(0.5) ? "\n" : "\r\n";
    const size_t fields = 1 + rng.NextBelow(5);
    for (size_t f = 0; f < fields; ++f) {
      if (f > 0) text += ',';
      text += RandomField(rng);
    }
    if (rng.NextBool(0.1)) text += ',';
    static constexpr const char* kEnds[] = {"\n", "\r\n", "\r", "\n\n", ""};
    text += kEnds[rng.NextBelow(r + 1 == records ? 5 : 4)];
  }
  return text;
}

TEST(CsvTokenizerOracle, EveryShortTextOverTheSpecialBytes) {
  static constexpr char kAlphabet[] = {'a', ',', '\n', '"', '\r'};
  Outcomes outcomes;
  std::string text;
  for (size_t length = 0; length <= 7; ++length) {
    text.assign(length, 'a');
    std::vector<size_t> digits(length, 0);
    while (true) {
      for (size_t i = 0; i < length; ++i) text[i] = kAlphabet[digits[i]];
      ExpectSameTokens(text, outcomes);
      if (testing::Test::HasFatalFailure()) return;
      size_t i = 0;
      while (i < length && ++digits[i] == sizeof(kAlphabet)) digits[i++] = 0;
      if (i == length) break;
    }
  }
  EXPECT_GT(outcomes.ok, 0u);
  EXPECT_GT(outcomes.quote_in_field, 0u);
  EXPECT_GT(outcomes.unterminated, 0u);
}

TEST(CsvTokenizerOracle, RandomTextsMatchTheReference) {
  Rng rng(27027);
  Outcomes outcomes;
  std::vector<size_t> lengths_mod_8(8, 0);
  for (int trial = 0; trial < 30000; ++trial) {
    std::string text = RandomText(rng);
    if (text.size() > 80) text.resize(rng.NextBelow(81));
    ++lengths_mod_8[text.size() % 8];
    ExpectSameTokens(text, outcomes);
    if (testing::Test::HasFatalFailure()) return;
  }
  for (size_t residue = 0; residue < 8; ++residue) {
    EXPECT_GT(lengths_mod_8[residue], 0u) << "length mod 8 = " << residue;
  }
  EXPECT_GT(outcomes.ok, 1000u);
  EXPECT_GT(outcomes.quote_in_field, 100u);
  EXPECT_GT(outcomes.unterminated, 100u);
}

// A record whose quoted fields outgrow the scratch buffer several times:
// fields built earlier in the record must still read back.
TEST(CsvTokenizerOracle, LongQuotedFieldsInOneRecord) {
  Outcomes outcomes;
  std::string text;
  for (int field = 0; field < 12; ++field) {
    if (field > 0) text += ',';
    text += '"' + std::string(static_cast<size_t>(7 << field), 'q') +
            "\"\"" + std::to_string(field) + '"';
    if (field % 3 == 0) text += ",plain" + std::to_string(field);
  }
  text += "\r\nlast,\"\"\n";
  ExpectSameTokens(text, outcomes);
  EXPECT_EQ(outcomes.ok, 1u);
}

}  // namespace
}  // namespace mdc
