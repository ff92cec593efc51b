#include "text/tokenizer.h"

#include <algorithm>
#include <iterator>

namespace kws::text {

namespace {

// Sorted, so `IsStopword` can binary-search it.
constexpr std::string_view kStopwords[] = {
    "a",  "an", "and", "are", "as",  "at",  "be",  "by", "for", "from",
    "in", "is", "it",  "of",  "on",  "or",  "the", "to", "with"};
static_assert(std::is_sorted(std::begin(kStopwords), std::end(kStopwords)));

}  // namespace

std::vector<std::string> Tokenizer::Tokenize(std::string_view input) const {
  std::vector<std::string> tokens;
  // ~1 token per 6 bytes of bibliographic text; one reserve instead of
  // log(n) grows.
  tokens.reserve(input.size() / 6 + 1);
  ForEachToken(input,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

bool Tokenizer::IsStopword(std::string_view word) {
  return std::binary_search(std::begin(kStopwords), std::end(kStopwords),
                            word);
}

}  // namespace kws::text
