#ifndef KWDB_TEXT_TOKENIZER_H_
#define KWDB_TEXT_TOKENIZER_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

namespace kws::text {

/// Options for `Tokenizer`. Defaults match what the surveyed systems use
/// over bibliographic text: lower-casing, alphanumeric tokens, a small
/// English stopword list.
struct TokenizerOptions {
  bool lowercase = true;
  bool drop_stopwords = true;
  /// Tokens shorter than this are dropped (1 keeps single letters).
  size_t min_token_length = 1;
};

/// Splits free text into normalized keyword tokens. This is the single
/// normalization point shared by indexing and query parsing, so a query
/// token always compares equal to the corresponding document token.
///
/// The stopword list is one static table shared by every instance, so a
/// `Tokenizer` holds only its options: constructing one allocates
/// nothing, and per-query call sites build a fresh one at no cost.
class Tokenizer {
 public:
  /// A tokenizer applying `options` (case folding, stopwords).
  explicit Tokenizer(TokenizerOptions options = {}) : options_(options) {}

  /// Tokenizes `input`, applying the configured normalization.
  std::vector<std::string> Tokenize(std::string_view input) const;

  /// Streaming tokenization: invokes `fn(std::string_view token)` for each
  /// normalized token without materializing a `std::vector<std::string>`.
  /// The view is only valid during the callback (it aliases an internal
  /// buffer that is reused between tokens) — copy it if it must outlive
  /// the call. This is the allocation-free path index construction uses.
  template <typename Fn>
  void ForEachToken(std::string_view input, Fn&& fn) const {
    std::string current;
    auto flush = [&] {
      if (current.size() >= options_.min_token_length &&
          !(options_.drop_stopwords && IsStopword(current))) {
        fn(std::string_view(current));
      }
      current.clear();
    };
    for (char raw : input) {
      unsigned char c = static_cast<unsigned char>(raw);
      if (std::isalnum(c)) {
        current.push_back(options_.lowercase
                              ? static_cast<char>(std::tolower(c))
                              : raw);
      } else {
        if (!current.empty()) flush();
      }
    }
    if (!current.empty()) flush();
  }

  /// True when `word` (already lower-case) is one of the 19 stopwords: a
  /// binary search of a static sorted table, no string materialized.
  static bool IsStopword(std::string_view word);

 private:
  TokenizerOptions options_;
};

}  // namespace kws::text

#endif  // KWDB_TEXT_TOKENIZER_H_
